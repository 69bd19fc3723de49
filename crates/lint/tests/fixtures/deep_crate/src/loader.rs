//! Loading whose mechanism an environment read picks: not a bug.

/// The environment read only chooses how the bytes are produced, inside
/// an `if` that is not the fn's tail expression; the returned value
/// never carries it.
pub fn load(len: usize) -> Vec<u8> {
    if len == 0 || std::env::var_os("FIXTURE_NO_MMAP").is_some() {
        return read_owned(len);
    }
    #[cfg(unix)]
    {
        let _ = len;
    }
    read_owned(len)
}

fn read_owned(len: usize) -> Vec<u8> {
    vec![7; len]
}

/// Ordering row indices by loaded bytes is deterministic: the bytes are
/// the same whichever way they were read.
pub fn row_order(len: usize) -> Vec<usize> {
    let rows = load(len);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| rows[i]);
    order
}
