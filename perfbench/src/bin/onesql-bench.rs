//! `onesql-bench`: see `onesql_perfbench::cli` and this directory's README.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(onesql_perfbench::cli::main_with(&args));
}
