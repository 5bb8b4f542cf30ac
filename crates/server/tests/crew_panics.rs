//! A panic in a router leg that ran on a kept crew thread reaches the
//! request that sent it: the front server answers `Internal` and counts
//! it in `bix_server_panics_total`, the crew keeps its threads, and the
//! fleet answers the next request.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bix_core::{Catalog, Crew, EncodingScheme, EvalDomain, IndexConfig};
use bix_server::router::{ShardDialer, Transport};
use bix_server::{
    Client, ClientError, ErrorCode, RetryPolicy, Router, RouterConfig, Server, ServerConfig,
};

const ROWS: usize = 4_000;

fn catalog(lo: usize, hi: usize) -> Catalog {
    let region: Vec<u64> = (lo as u64..hi as u64).map(|i| (i * 13) % 4).collect();
    Catalog::build(
        hi - lo,
        &[(
            "region",
            &region,
            IndexConfig::one_component(4, EncodingScheme::Equality),
        )],
    )
}

/// Where the armed stream panicked: the names of the threads.
type Panics = Arc<Mutex<Vec<String>>>;

/// A shard link that panics on its next write while `armed` is set.
struct Tripwire {
    stream: TcpStream,
    armed: Arc<AtomicBool>,
    panics: Panics,
}

impl Read for Tripwire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for Tripwire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.armed.load(Ordering::Relaxed) {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.panics.lock().expect("panic log").push(name);
            panic!("shard link tripped");
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Dials shard links, the one to shard 0 through a [`Tripwire`].
fn dialer(armed: Arc<AtomicBool>, panics: Panics) -> ShardDialer {
    Arc::new(move |shard, addr: &str| {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(2_000)))?;
        if shard != 0 {
            return Ok(Box::new(stream) as Box<dyn Transport>);
        }
        Ok(Box::new(Tripwire {
            stream,
            armed: Arc::clone(&armed),
            panics: Arc::clone(&panics),
        }) as Box<dyn Transport>)
    })
}

fn panics_total(front: &Server) -> f64 {
    let text = front.registry().snapshot().to_prometheus();
    text.lines()
        .find(|l| l.split_whitespace().next() == Some("bix_server_panics_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bix_server_panics_total missing:\n{text}"))
}

#[test]
fn a_leg_panic_on_a_crew_thread_reaches_the_request() {
    let shards: Vec<Server> = [(0, 1_500), (1_500, ROWS)]
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            let config = ServerConfig {
                shard_id: i as u16,
                ..ServerConfig::default()
            };
            Server::start_catalog(catalog(lo, hi), "127.0.0.1:0", config).expect("bind shard")
        })
        .collect();
    let (armed, panics) = (Arc::new(AtomicBool::new(false)), Panics::default());
    let router = Router::with_dialer(
        shards.iter().map(|s| s.addr().to_string()).collect(),
        RouterConfig {
            retry: RetryPolicy::none(),
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        },
        dialer(Arc::clone(&armed), Arc::clone(&panics)),
    );
    let front = Server::serve(Arc::new(router), "127.0.0.1:0", ServerConfig::default())
        .expect("bind router");
    let mut client = Client::connect(front.addr()).expect("dial router");
    let want = client
        .table_count("region = 1", EvalDomain::Auto, 0)
        .expect("healthy count")
        .count;
    let crew = Crew::global().threads();

    // Shard 0's leg is handed to the crew (shard 1's runs inline); trip
    // it until one trip lands on a crew thread.
    armed.store(true, Ordering::Relaxed);
    let mut on_crew = false;
    for attempt in 1..=50 {
        let err = client
            .table_count("region = 1", EvalDomain::Auto, 0)
            .expect_err("a tripped leg fails the request");
        assert!(
            matches!(
                err,
                ClientError::Server {
                    code: ErrorCode::Internal,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(panics_total(&front), attempt as f64);
        let last = panics.lock().expect("panic log").last().cloned();
        if last.is_some_and(|name| name.starts_with("bix-crew-")) {
            on_crew = true;
            break;
        }
    }
    armed.store(false, Ordering::Relaxed);
    assert!(on_crew, "no trip ran on a crew thread: {:?}", panics.lock());

    assert_eq!(Crew::global().threads(), crew, "the crew keeps its threads");
    let got = client
        .table_count("region = 1", EvalDomain::Auto, 0)
        .expect("the fleet answers after the panics");
    assert_eq!(got.count, want);

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
