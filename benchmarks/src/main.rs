fn main() -> std::process::ExitCode {
    actbench::cli::main()
}
