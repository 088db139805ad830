//! The load generator's side of the wire: a minimal HTTP/1.1 client (one
//! connection per request, as the server expects) and the `/v1/predict`
//! pragma-configuration encoding. Written here rather than borrowed from
//! `serve::http`, so client-side cost stays fixed when the program changes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hier_hls_qor::pragma::{ArrayPartition, PartitionKind, PragmaConfig, Unroll};

use crate::util::json_str;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request and returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    // wait for the reply by polling, yielding the CPU between polls, rather
    // than blocking: a blocked client lets its virtual CPU halt, and on a
    // shared host every wake-up from halt waits for the hypervisor, which
    // made this closed loop's figures follow the host's load
    stream.set_nonblocking(true)?;
    let deadline = Instant::now() + TIMEOUT;
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let invalid = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let text = String::from_utf8(raw).map_err(|_| invalid())?;
    let (head, rest) = text.split_once("\r\n\r\n").ok_or_else(invalid)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    Ok((status, rest.to_string()))
}

/// The `"config"` object of a predict request for `cfg`: every loop entry
/// with all three loop pragmas, every array dimension entry.
pub fn config_json(cfg: &PragmaConfig) -> String {
    let loops: Vec<String> = cfg
        .loops()
        .map(|(id, p)| {
            let path: Vec<String> = id.path().iter().map(u16::to_string).collect();
            let unroll = match p.unroll {
                Unroll::Off => "0".to_string(),
                Unroll::Factor(f) => f.to_string(),
                Unroll::Full => "\"full\"".to_string(),
            };
            format!(
                "{{\"loop\":[{}],\"pipeline\":{},\"flatten\":{},\"unroll\":{unroll}}}",
                path.join(","),
                p.pipeline,
                p.flatten
            )
        })
        .collect();
    let arrays: Vec<String> = cfg
        .arrays()
        .flat_map(|(name, parts)| {
            parts.iter().enumerate().map(move |(d, p)| {
                format!(
                    "{{\"array\":{},\"dim\":{},\"kind\":\"{}\",\"factor\":{}}}",
                    json_str(name),
                    d + 1,
                    kind_name(p.kind),
                    p.factor
                )
            })
        })
        .collect();
    format!(
        "{{\"loops\":[{}],\"arrays\":[{}]}}",
        loops.join(","),
        arrays.join(",")
    )
}

fn kind_name(kind: PartitionKind) -> &'static str {
    match kind {
        PartitionKind::Cyclic => "cyclic",
        PartitionKind::Block => "block",
        PartitionKind::Complete => "complete",
    }
}

/// The configuration the server builds from [`config_json`]'s encoding,
/// per the documented request format: an unroll factor of 0 or 1 means no
/// unrolling.
pub fn wire_config(cfg: &PragmaConfig) -> PragmaConfig {
    let mut out = PragmaConfig::new();
    for (id, p) in cfg.loops() {
        out.set_pipeline(id.clone(), p.pipeline);
        out.set_flatten(id.clone(), p.flatten);
        let unroll = match p.unroll {
            Unroll::Factor(0 | 1) => Unroll::Off,
            u => u,
        };
        out.set_unroll(id.clone(), unroll);
    }
    for (name, parts) in cfg.arrays() {
        for (d, p) in parts.iter().enumerate() {
            out.set_partition(
                name,
                d as u32 + 1,
                ArrayPartition {
                    kind: p.kind,
                    factor: p.factor,
                },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hier_hls_qor::pragma::LoopId;

    #[test]
    fn config_encoding_lists_every_pragma() {
        let mut cfg = PragmaConfig::new();
        cfg.set_pipeline(LoopId::from_path(&[0, 1]), true);
        cfg.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(4));
        cfg.set_partition(
            "a",
            2,
            ArrayPartition {
                kind: PartitionKind::Block,
                factor: 2,
            },
        );
        assert_eq!(
            config_json(&cfg),
            "{\"loops\":[{\"loop\":[0],\"pipeline\":false,\"flatten\":false,\"unroll\":4},\
             {\"loop\":[0,1],\"pipeline\":true,\"flatten\":false,\"unroll\":0}],\
             \"arrays\":[{\"array\":\"a\",\"dim\":1,\"kind\":\"cyclic\",\"factor\":1},\
             {\"array\":\"a\",\"dim\":2,\"kind\":\"block\",\"factor\":2}]}"
        );
        assert_eq!(wire_config(&cfg), cfg);
        let mut one = PragmaConfig::new();
        one.set_unroll(LoopId::from_path(&[0]), Unroll::Factor(1));
        assert_eq!(
            wire_config(&one)
                .loop_pragma(&LoopId::from_path(&[0]))
                .unroll,
            Unroll::Off
        );
    }
}
