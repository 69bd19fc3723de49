//! [`TenantRegistry`]: the serving façade — one shared base model, many
//! tenants, each a small overlay stack.
//!
//! The registry owns an `Arc`'d [`BaseModel`] (usually an
//! [`crate::MmapDb`] over a packed image), an optional **org patch**
//! layer shared read-only by every tenant (frozen at construction — the
//! stacking middle layer, e.g. an org-wide correction batch shipped
//! between image repacks), and a map of per-tenant delta layers.
//! A tenant's serving stack is therefore up to 2 layers deep:
//!
//! ```text
//! user delta   (tenant-private, mutable via train/untrain)
//! org patch    (shared, frozen)
//! base image   (shared, mmap'd, immutable)
//! ```
//!
//! ## Locking
//!
//! Tenants live behind a registry-level `RwLock` map (tenant add/remove
//! is rare) of per-tenant `RwLock`s: classification takes the tenant lock
//! in *read* mode — many probe threads classify the same tenant
//! concurrently — while train/untrain takes it in write mode and is the
//! only writer of the delta. All lock poisoning surfaces as
//! [`ServeError::Poisoned`] (a panicking writer may have left
//! half-applied counts; serving them would violate the bit-identity
//! contract), never as a propagated panic.
//!
//! ## Memory
//!
//! A tenant costs its own mail: the delta holds one entry per token the
//! tenant trained, and nothing is sized by the shared interner. Stacks
//! score from counts on every lookup (see [`crate::tenant`]).

use crate::model::BaseModel;
use crate::tenant::{OverlayLayer, StackView};
use crate::ServeError;
use sb_email::{parse_email, Label};
use sb_filter::classify::{email_ids, score_token_ids};
use sb_filter::{FilterOptions, Scored};
use sb_intern::{par, AsIdSlice, FxHashMap, Interner, TokenId};
use sb_tokenizer::Tokenizer;
use std::sync::{Arc, RwLock};

/// A tenant's identity within one registry (a user of the org the base
/// image serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// The multi-tenant serving registry (see module docs).
pub struct TenantRegistry<B: BaseModel> {
    base: Arc<B>,
    /// The shared, frozen middle layer (empty = absent; an empty layer
    /// contributes nothing, so the stack is effectively 1-deep then).
    org_patch: OverlayLayer,
    opts: FilterOptions,
    /// Each tenant's private delta, behind its own lock.
    tenants: RwLock<FxHashMap<u32, Arc<RwLock<OverlayLayer>>>>,
}

impl<B: BaseModel> std::fmt::Debug for TenantRegistry<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.tenants.read().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("TenantRegistry")
            .field("tenants", &n)
            .field("org_patch_tokens", &self.org_patch.len())
            .finish()
    }
}

impl<B: BaseModel> TenantRegistry<B> {
    /// A registry over `base` with no org patch.
    pub fn new(base: Arc<B>, opts: FilterOptions) -> Self {
        Self::with_org_patch(base, OverlayLayer::new(), opts)
    }

    /// A registry over `base` with a frozen org-wide patch layer every
    /// tenant's stack includes beneath its own delta.
    pub fn with_org_patch(base: Arc<B>, org_patch: OverlayLayer, opts: FilterOptions) -> Self {
        Self {
            base,
            org_patch,
            opts,
            tenants: RwLock::new(FxHashMap::default()),
        }
    }

    /// The shared base model.
    pub fn base(&self) -> &Arc<B> {
        &self.base
    }

    /// The frozen org patch layer.
    pub fn org_patch(&self) -> &OverlayLayer {
        &self.org_patch
    }

    /// The interner every tenant's ids resolve against (the base's).
    pub fn interner(&self) -> &Interner {
        self.base.interner()
    }

    /// The options every stack serves.
    pub fn options(&self) -> &FilterOptions {
        &self.opts
    }

    /// Register a new tenant with an empty delta.
    pub fn add_tenant(&self, id: TenantId) -> Result<(), ServeError> {
        let mut map = self.tenants.write().map_err(|_| ServeError::Poisoned)?;
        if map.contains_key(&id.0) {
            return Err(ServeError::TenantExists(id.0));
        }
        map.insert(id.0, Arc::new(RwLock::new(OverlayLayer::new())));
        Ok(())
    }

    /// Drop a tenant (its delta). Unknown ids are a typed error.
    pub fn remove_tenant(&self, id: TenantId) -> Result<(), ServeError> {
        let mut map = self.tenants.write().map_err(|_| ServeError::Poisoned)?;
        match map.remove(&id.0) {
            Some(_) => Ok(()),
            None => Err(ServeError::UnknownTenant(id.0)),
        }
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().map(|m| m.len()).unwrap_or(0)
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered tenant ids, ascending (sorted so callers iterating the
    /// fleet are deterministic regardless of hash-map order).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = match self.tenants.read() {
            Ok(map) => map.keys().map(|&k| TenantId(k)).collect(),
            Err(_) => Vec::new(),
        };
        ids.sort_unstable();
        ids
    }

    fn tenant(&self, id: TenantId) -> Result<Arc<RwLock<OverlayLayer>>, ServeError> {
        let map = self.tenants.read().map_err(|_| ServeError::Poisoned)?;
        map.get(&id.0)
            .cloned()
            .ok_or(ServeError::UnknownTenant(id.0))
    }

    /// Train one message (a deduplicated id set against
    /// [`TenantRegistry::interner`]) into `id`'s private delta. The
    /// shared base and org patch are never touched.
    pub fn train(&self, id: TenantId, ids: &[TokenId], label: Label) -> Result<(), ServeError> {
        let tenant = self.tenant(id)?;
        let mut delta = tenant.write().map_err(|_| ServeError::Poisoned)?;
        delta.train_ids(ids, label);
        Ok(())
    }

    /// Exactly remove one previously trained message from `id`'s delta.
    /// Only the tenant's own training is removable — an untrain reaching
    /// into the shared base or org patch is an [`ServeError::Underflow`]
    /// refusal that mutates nothing.
    pub fn untrain(&self, id: TenantId, ids: &[TokenId], label: Label) -> Result<(), ServeError> {
        let tenant = self.tenant(id)?;
        let mut delta = tenant.write().map_err(|_| ServeError::Poisoned)?;
        delta
            .untrain_ids(ids, label)
            .map_err(|_| ServeError::Underflow { tenant: id.0 })
    }

    /// Run `f` against `id`'s current serving stack (org patch under user
    /// delta) under the tenant read lock — the primitive
    /// `classify_ids_batch` and the bit-identity tests build on.
    pub fn with_stack<R>(
        &self,
        id: TenantId,
        f: impl FnOnce(&StackView<'_, B>) -> R,
    ) -> Result<R, ServeError> {
        let tenant = self.tenant(id)?;
        let delta = tenant.read().map_err(|_| ServeError::Poisoned)?;
        let layers: [&OverlayLayer; 2] = [&self.org_patch, &delta];
        let stack = StackView::new(self.base.as_ref(), &layers);
        Ok(f(&stack))
    }

    /// Classify one pre-interned id set through `id`'s stack.
    pub fn classify_ids(&self, id: TenantId, ids: &[TokenId]) -> Result<Scored, ServeError> {
        self.with_stack(id, |stack| score_token_ids(ids, stack, &self.opts))
    }

    /// Classify one raw RFC 822 message through `id`'s stack: parse,
    /// tokenize (SpamBayes-default options, as every stack is trained)
    /// and look the tokens up read-only ([`email_ids`]), so serving
    /// untrusted mail never grows the shared interner. The verdict equals
    /// [`TenantRegistry::classify_ids`] of the interned token set: tokens
    /// the interner has never seen score the prior, which δ(E) excludes.
    pub fn classify_raw(&self, id: TenantId, raw: &str) -> Result<Scored, ServeError> {
        let email = parse_email(raw);
        let ids = email_ids(&Tokenizer::new(), &email, self.interner(), &self.opts);
        self.classify_ids(id, &ids)
    }

    /// Classify a batch of pre-interned id sets through `id`'s stack, in
    /// parallel (scoped workers, results in input order, chunk sizing per
    /// `SB_CHUNK`). The workers share the tenant's stack under one read
    /// lock; each computes its messages' scores from the stack's counts.
    pub fn classify_ids_batch(
        &self,
        id: TenantId,
        batch: &[impl AsIdSlice + Sync],
    ) -> Result<Vec<Scored>, ServeError> {
        self.classify_ids_batch_with_threads(id, batch, par::default_threads())
    }

    /// [`TenantRegistry::classify_ids_batch`] with an explicit worker
    /// count (1 = sequential; results are identical either way).
    pub fn classify_ids_batch_with_threads(
        &self,
        id: TenantId,
        batch: &[impl AsIdSlice + Sync],
        threads: usize,
    ) -> Result<Vec<Scored>, ServeError> {
        self.with_stack(id, |stack| {
            par::parallel_chunks(batch, threads, |_, chunk| {
                chunk
                    .iter()
                    .map(|ids| score_token_ids(ids.ids(), stack, &self.opts))
                    .collect()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_filter::TokenDb;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn base_db(interner: &Interner) -> TokenDb {
        let mut db = TokenDb::with_interner(interner.clone());
        for i in 0..6 {
            db.train(&toks(&["cheap", "pills", &format!("s{i}")]), Label::Spam);
            db.train(&toks(&["meeting", "agenda", &format!("h{i}")]), Label::Ham);
        }
        db
    }

    fn registry(interner: &Interner) -> TenantRegistry<TokenDb> {
        let base = Arc::new(base_db(interner));
        let mut org = OverlayLayer::new();
        org.train_ids(
            &interner.intern_set(&toks(&["quarterly", "report"])),
            Label::Ham,
        );
        TenantRegistry::with_org_patch(base, org, FilterOptions::default())
    }

    #[test]
    fn tenant_lifecycle_and_typed_errors() {
        let interner = Interner::new();
        let reg = registry(&interner);
        assert!(reg.is_empty());
        reg.add_tenant(TenantId(3)).unwrap();
        reg.add_tenant(TenantId(1)).unwrap();
        assert!(matches!(
            reg.add_tenant(TenantId(3)),
            Err(ServeError::TenantExists(3))
        ));
        assert_eq!(reg.tenant_ids(), vec![TenantId(1), TenantId(3)]);
        assert!(matches!(
            reg.classify_ids(TenantId(9), &[]),
            Err(ServeError::UnknownTenant(9))
        ));
        reg.remove_tenant(TenantId(3)).unwrap();
        assert!(matches!(
            reg.remove_tenant(TenantId(3)),
            Err(ServeError::UnknownTenant(3))
        ));
        assert_eq!(reg.len(), 1);
    }

    /// Per-tenant training is isolated: tenant A's delta never moves
    /// tenant B's verdicts — the poisoning blast-radius property.
    #[test]
    fn tenant_deltas_are_isolated() {
        let interner = Interner::new();
        let reg = registry(&interner);
        reg.add_tenant(TenantId(0)).unwrap();
        reg.add_tenant(TenantId(1)).unwrap();

        let probe = interner.intern_set(&toks(&["meeting", "agenda", "trigger"]));
        let before = reg.classify_ids(TenantId(1), &probe).unwrap();

        // Poison tenant 0 heavily: the trigger token becomes spammy there.
        let poison = interner.intern_set(&toks(&["trigger", "meeting"]));
        for _ in 0..50 {
            reg.train(TenantId(0), &poison, Label::Spam).unwrap();
        }
        let after = reg.classify_ids(TenantId(1), &probe).unwrap();
        assert_eq!(before.score.to_bits(), after.score.to_bits());
        assert_eq!(before, after);
        // And tenant 0's own view did move.
        let poisoned = reg.classify_ids(TenantId(0), &probe).unwrap();
        assert_ne!(poisoned.score.to_bits(), before.score.to_bits());
    }

    /// The registry stack (org patch + user delta) matches a standalone
    /// TokenDb trained base → org → user, message for message.
    #[test]
    fn registry_verdicts_match_standalone_db() {
        let interner = Interner::new();
        let reg = registry(&interner);
        reg.add_tenant(TenantId(7)).unwrap();
        let user_mail = interner.intern_set(&toks(&["viagra", "cheap", "now"]));
        reg.train(TenantId(7), &user_mail, Label::Spam).unwrap();

        let mut standalone = base_db(&interner);
        standalone.train_ids(
            &interner.intern_set(&toks(&["quarterly", "report"])),
            Label::Ham,
        );
        standalone.train_ids(&user_mail, Label::Spam);

        let batch: Vec<Vec<sb_intern::TokenId>> = [
            vec!["cheap", "viagra"],
            vec!["meeting", "agenda"],
            vec!["quarterly", "report", "now"],
        ]
        .iter()
        .map(|words| interner.intern_set(&toks(words)))
        .collect();

        let got = reg.classify_ids_batch(TenantId(7), &batch).unwrap();
        let opts = FilterOptions::default();
        for (ids, scored) in batch.iter().zip(&got) {
            let want = score_token_ids(ids, &standalone, &opts);
            assert_eq!(scored.score.to_bits(), want.score.to_bits());
            assert_eq!(*scored, want);
        }
    }

    /// Untrain scope: a tenant can remove its own training but not reach
    /// into the base or the org patch.
    #[test]
    fn untrain_scope_is_the_tenant_delta() {
        let interner = Interner::new();
        let reg = registry(&interner);
        reg.add_tenant(TenantId(2)).unwrap();
        let mail = interner.intern_set(&toks(&["cheap", "offer"]));
        reg.train(TenantId(2), &mail, Label::Spam).unwrap();
        reg.untrain(TenantId(2), &mail, Label::Spam).unwrap();
        // Again: the delta is empty now, even though the *base* trained
        // "cheap" many times — that mail is not the tenant's to forget.
        assert!(matches!(
            reg.untrain(TenantId(2), &mail, Label::Spam),
            Err(ServeError::Underflow { tenant: 2 })
        ));
        // Org-patch mail is equally out of reach.
        let org_mail = interner.intern_set(&toks(&["quarterly", "report"]));
        assert!(matches!(
            reg.untrain(TenantId(2), &org_mail, Label::Ham),
            Err(ServeError::Underflow { tenant: 2 })
        ));
    }

    /// Many probe threads classify one tenant concurrently under its read
    /// lock, bit-identically to a sequential run.
    #[test]
    fn concurrent_probes_share_one_tenant() {
        let interner = Interner::new();
        let reg = registry(&interner);
        reg.add_tenant(TenantId(0)).unwrap();
        reg.train(
            TenantId(0),
            &interner.intern_set(&toks(&["cheap", "now"])),
            Label::Spam,
        )
        .unwrap();

        let batch: Vec<Vec<sb_intern::TokenId>> = (0..64)
            .map(|i| {
                interner.intern_set(&toks(&[
                    "cheap",
                    "meeting",
                    if i % 2 == 0 { "pills" } else { "agenda" },
                ]))
            })
            .collect();
        let sequential = reg
            .classify_ids_batch_with_threads(TenantId(0), &batch, 1)
            .unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        reg.classify_ids_batch_with_threads(TenantId(0), &batch, 2)
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                let got = h.join().unwrap();
                for (g, w) in got.iter().zip(&sequential) {
                    assert_eq!(g.score.to_bits(), w.score.to_bits());
                }
                assert_eq!(got, sequential);
            }
        });
    }
}
