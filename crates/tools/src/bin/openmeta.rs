//! `openmeta` — command-line tools for XMIT metadata.
//!
//! ```text
//! openmeta validate <url-or-file>
//! openmeta layout   <url-or-file> <type> [native|sparc32|sparc64|x86|x86_64]
//! openmeta codegen  <java|c|class> <url-or-file> <type> [package] [-o dir]
//! openmeta match    <message-file> <url-or-file>
//! openmeta inspect  <pbio-file>
//! openmeta serve    <dir> [port]
//! openmeta formats  diff <old-url> <new-url> [--json]
//! openmeta negotiate bench [--handshakes N] [--pairs K] [--json] [--check]
//! openmeta planlint [--json] <xsd-file>...
//! openmeta protolint [--json] [--root <dir>] [--mutants]
//! openmeta stats    [--json|--prom] [url]
//! openmeta loadgen  [--server http|pbio] [--connections N] ...
//! openmeta channel  <bench|publish|subscribe> ...
//! ```

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  openmeta validate <url-or-file>\n  \
         openmeta layout <url-or-file> <type> [machine]\n  \
         openmeta codegen <java|c|cpp|class> <url-or-file> <type> [package] [-o dir]\n  \
         openmeta diff <old-url> <new-url> <type> [machine]\n  \
         openmeta formats diff <old-url> <new-url> [--json]\n  \
         openmeta negotiate bench [--handshakes N] [--pairs K] [--json] [--check]\n  \
         openmeta match <message-file> <url-or-file>\n  \
         openmeta inspect <pbio-file>\n  \
         openmeta serve <dir> [port]\n  \
         openmeta planlint [--json] <xsd-file>...\n  \
         openmeta protolint [--json] [--root <dir>] [--mutants]\n  \
         openmeta stats [--json|--prom] [url]\n  \
         openmeta loadgen [--server http|pbio] [--connections N] [--requests N]\n           \
         [--json] [--check] [--max-p99-ms MS] [--serve-only] [--target host:port]\n  \
         openmeta channel bench [--subs N] [--projections K] [--events N]\n           \
         [--payload N] [--policy block|drop|disconnect] [--queue-cap N] [--json] [--check]\n  \
         openmeta channel publish [--port P] [--events N] [--interval-ms MS] [--payload N]\n  \
         openmeta channel subscribe <host:port> [--keep f1,f2] [--narrow] [--id N]\n           \
         [--count N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), String> = match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("validate", [spec]) => openmeta_tools::validate(spec).map(|o| print!("{o}")),
            ("layout", [spec, ty]) => openmeta_tools::layout(spec, ty, None).map(|o| print!("{o}")),
            ("layout", [spec, ty, machine]) => {
                openmeta_tools::layout(spec, ty, Some(machine)).map(|o| print!("{o}"))
            }
            ("codegen", [kind, spec, ty, tail @ ..]) => {
                let mut package = None;
                let mut out_dir = None;
                let mut it = tail.iter();
                while let Some(a) = it.next() {
                    if a == "-o" {
                        out_dir = it.next().cloned();
                    } else {
                        package = Some(a.clone());
                    }
                }
                openmeta_tools::codegen(kind, spec, ty, package.as_deref()).and_then(|files| {
                    for (name, bytes) in files {
                        match &out_dir {
                            Some(dir) => {
                                let path = std::path::Path::new(dir).join(&name);
                                std::fs::write(&path, &bytes)
                                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                                println!("wrote {}", path.display());
                            }
                            None => match String::from_utf8(bytes) {
                                Ok(text) => print!("{text}"),
                                Err(_) => {
                                    return Err(format!(
                                        "{name} is binary; use -o <dir> to write it"
                                    ))
                                }
                            },
                        }
                    }
                    Ok(())
                })
            }
            ("diff", [old, new, ty]) => {
                openmeta_tools::diff(old, new, ty, None).map(|o| print!("{o}"))
            }
            ("diff", [old, new, ty, machine]) => {
                openmeta_tools::diff(old, new, ty, Some(machine)).map(|o| print!("{o}"))
            }
            ("formats", rest) => {
                let Some((sub, rest)) = rest.split_first() else { return usage() };
                if sub != "diff" {
                    return usage();
                }
                let (format, positional) = match openmeta_tools::output::parse_args(rest) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                let [old, new] = positional.as_slice() else { return usage() };
                if format == openmeta_tools::output::Format::Prometheus {
                    return usage();
                }
                let json = format == openmeta_tools::output::Format::Json;
                match openmeta_tools::formats_diff(old, new, json) {
                    Ok((out, passed)) => {
                        print!("{out}");
                        if !passed {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ("negotiate", rest) => {
                let Some((sub, rest)) = rest.split_first() else { return usage() };
                if sub != "bench" {
                    return usage();
                }
                let opts = match openmeta_tools::negotiate::NegotiateOptions::parse(rest) {
                    Ok(opts) => opts,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                match openmeta_tools::negotiate::run(opts) {
                    Ok(report) => {
                        if report.opts.json {
                            print!("{}", report.to_json());
                        } else {
                            print!("{}", report.to_text());
                        }
                        if report.opts.check && !report.passed() {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ("match", [message, spec]) => {
                openmeta_tools::match_msg(message, spec).map(|o| print!("{o}"))
            }
            ("inspect", [path]) => openmeta_tools::inspect(path).map(|o| print!("{o}")),
            ("planlint", rest) => {
                let (format, files) = match openmeta_tools::output::parse_args(rest) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                if files.is_empty() || format == openmeta_tools::output::Format::Prometheus {
                    return usage();
                }
                let json = format == openmeta_tools::output::Format::Json;
                match openmeta_tools::planlint(&files, json) {
                    Ok((out, passed)) => {
                        print!("{out}");
                        if !passed {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ("protolint", rest) => {
                let mut json = false;
                let mut mutants = false;
                let mut root = String::from(".");
                let mut it = rest.iter();
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--json" => json = true,
                        "--mutants" => mutants = true,
                        "--root" => match it.next() {
                            Some(dir) => root = dir.clone(),
                            None => return usage(),
                        },
                        _ => return usage(),
                    }
                }
                match openmeta_tools::protolint(&root, json, mutants) {
                    Ok((out, passed)) => {
                        print!("{out}");
                        if !passed {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ("stats", rest) => {
                let (format, positional) = match openmeta_tools::output::parse_args(rest) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                let url = match positional.as_slice() {
                    [] => None,
                    [url] => Some(*url),
                    _ => return usage(),
                };
                openmeta_tools::stats(format, url).map(|o| print!("{o}"))
            }
            ("loadgen", rest) => {
                let opts = match openmeta_tools::loadgen::LoadgenOptions::parse(rest) {
                    Ok(opts) => opts,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                match openmeta_tools::loadgen::run(opts) {
                    Ok(report) => {
                        if report.opts.json {
                            print!("{}", report.to_json());
                        } else {
                            print!("{}", report.to_text());
                        }
                        if report.opts.check && !report.passed() {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ("channel", rest) => {
                let opts = match openmeta_tools::channel::ChannelOptions::parse(rest) {
                    Ok(opts) => opts,
                    Err(e) => {
                        eprintln!("openmeta: {e}");
                        return usage();
                    }
                };
                match openmeta_tools::channel::run(opts) {
                    Ok(Some(report)) => {
                        if report.opts.json {
                            print!("{}", report.to_json());
                        } else {
                            print!("{}", report.to_text());
                        }
                        if report.opts.check && !report.passed() {
                            return ExitCode::FAILURE;
                        }
                        Ok(())
                    }
                    Ok(None) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            ("serve", [dir, rest @ ..]) => {
                let port = match rest {
                    [] => 0u16,
                    [p] => match p.parse() {
                        Ok(p) => p,
                        Err(_) => return usage(),
                    },
                    _ => return usage(),
                };
                match openmeta_tools::serve(dir, port) {
                    Ok((server, hosted)) => {
                        println!("serving metadata from {dir} on http://{}", server.addr());
                        for url in hosted {
                            println!("  {url}");
                        }
                        println!("(ctrl-c to stop)");
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    Err(e) => Err(e),
                }
            }
            _ => return usage(),
        },
        None => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("openmeta: {e}");
            ExitCode::FAILURE
        }
    }
}
