//! Untraced benchmark binary: end-to-end metrics on the system allocator.

fn main() {
    std::process::exit(perfbench::main_with(false));
}
