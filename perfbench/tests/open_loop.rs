//! The load generator against a stub server that stalls once: an open
//! loop must charge the stall to every request that fell due during it.

use std::net::TcpListener;
use std::time::Duration;

use pdp_core::{KeyedEvent, SubjectId};
use pdp_server::frame::{read_frame, write_frame};
use pdp_server::Frame;
use pdp_stream::{Event, EventType, Timestamp};
use perfbench::load::{Conn, Pace};
use perfbench::workload::{Group, Op};

const RATE: f64 = 1000.0;
const GROUPS: u64 = 800;
const STALL_AT: u64 = 300;
const STALL: Duration = Duration::from_millis(200);

/// Acks every push at once, except that it sleeps `STALL` before
/// answering push number `STALL_AT`.
fn stub_server(listener: TcpListener) {
    let (stream, _) = listener.accept().unwrap();
    let mut read = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut write = stream;
    let mut ingested = 0u64;
    while let Ok(Some(frame)) = read_frame(&mut read) {
        let reply = match frame {
            Frame::Hello { .. } => Frame::HelloAck {
                n_shards: 1,
                parallel: false,
                epoch: 0,
            },
            Frame::PushBatch { seq, events } => {
                if seq == STALL_AT {
                    std::thread::sleep(STALL);
                }
                ingested += events.len() as u64;
                Frame::Ack {
                    seq,
                    events_ingested: ingested,
                    low_watermark: None,
                }
            }
            Frame::Shutdown => {
                write_frame(
                    &mut write,
                    &Frame::ShutdownAck {
                        events_ingested: ingested,
                    },
                )
                .unwrap();
                return;
            }
            _ => continue,
        };
        write_frame(&mut write, &reply).unwrap();
    }
}

fn one_event_group() -> Group {
    Group {
        ops: vec![Op::Push(vec![KeyedEvent::new(
            SubjectId(0),
            Event::new(EventType(0), Timestamp::ZERO),
        )])],
        events: 0,
        windows: (1, 0),
    }
}

#[test]
fn a_stall_inflates_every_request_due_during_it() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || stub_server(listener));
    let mut conn = Conn::connect(addr, false).unwrap();
    let sent = conn
        .run(
            &mut one_event_group,
            Pace::Rate {
                per_s: RATE,
                groups: GROUPS,
            },
        )
        .unwrap();
    let observed = conn.take();
    let closed = conn.shutdown().unwrap();
    server.join().unwrap();

    assert_eq!(sent.groups, GROUPS);
    assert_eq!(observed.ack_ns.len() as u64, GROUPS);
    assert_eq!(closed.events_ingested, GROUPS);
    // requests due in the first three quarters of the stall waited at
    // least a quarter of it: about stall × rate × 3/4 samples, where a
    // closed loop would record exactly one
    let slow = observed
        .ack_ns
        .iter()
        .filter(|&&ns| ns >= STALL.as_nanos() as f64 / 4.0)
        .count() as f64;
    let expected = STALL.as_secs_f64() * RATE * 0.75;
    assert!(
        slow >= 0.7 * expected && slow <= 1.3 * expected + 10.0,
        "{slow} slow samples, expected about {expected}"
    );
}
