//! Client side of the protocol: a framed RPC handle and [`RemoteSim`],
//! the `SimBackend` that makes a design server look like a local
//! simulator — the fleet-shardable remote backend from the ROADMAP.

use crate::proto::{
    read_frame, write_frame, Request, Response, WorkItem, REMOTE_BUSY_MSG, TRANSPORT_FAILURE_MSG,
};
use artisan_circuit::{Netlist, Topology};
use artisan_math::MathError;
use artisan_sim::cost::CostLedger;
use artisan_sim::{
    elaborate_for_analysis, load_capacitance, AnalysisReport, Result, SimBackend, SimError,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A framed request/response connection to a design server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and reads the raw reply payload bytes — the
    /// bit-identical comparison surface `serve_load` uses.
    ///
    /// # Errors
    ///
    /// Propagates transport and framing failures.
    pub fn call_raw(&mut self, request: &Request) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, &request.encode())?;
        read_frame(&mut self.stream)
    }

    /// Sends one request and decodes the reply.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; protocol violations surface as
    /// `InvalidData`.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let payload = self.call_raw(request)?;
        Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// A [`SimBackend`] that proxies every analysis to a remote design
/// server.
///
/// Candidates that fail [`elaborate_for_analysis`] or
/// [`load_capacitance`] are rejected locally and unbilled; every other
/// analysis bills one simulation and batches bill up front, as the local
/// [`artisan_sim::Simulator`] does, so a supervised session on a
/// `RemoteSim` produces the same `SessionReport` cost fields as a solo
/// run. Transport failures and server `busy` replies surface as
/// *transient* errors ([`MathError::DegenerateInput`], which
/// `SimError::is_transient` accepts), so supervisors retry with
/// backoff — admission-control backpressure composes with the retry
/// policy for free. Each failure also leaves a fault note for
/// [`SimBackend::drain_fault_notes`].
pub struct RemoteSim {
    client: Client,
    ledger: CostLedger,
    notes: Vec<String>,
}

impl RemoteSim {
    /// Connects a remote backend.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<RemoteSim> {
        Ok(RemoteSim {
            client: Client::connect(addr)?,
            ledger: CostLedger::new(),
            notes: Vec::new(),
        })
    }

    fn transport_failure(&mut self, context: &str, err: &io::Error) -> SimError {
        self.notes.push(format!("remote {context}: {err}"));
        SimError::Math(MathError::DegenerateInput(TRANSPORT_FAILURE_MSG))
    }

    fn analyze_remote(&mut self, item: WorkItem) -> Result<AnalysisReport> {
        let mut results = self.analyze_remote_many(vec![item], false);
        match results.pop() {
            Some(result) => result,
            None => Err(SimError::Math(MathError::DegenerateInput(
                TRANSPORT_FAILURE_MSG,
            ))),
        }
    }

    fn analyze_remote_many(
        &mut self,
        items: Vec<WorkItem>,
        batch: bool,
    ) -> Vec<Result<AnalysisReport>> {
        let n = items.len();
        let request = if batch {
            Request::AnalyzeBatch { items }
        } else {
            match items.into_iter().next() {
                Some(item) => Request::Analyze { item },
                None => return Vec::new(),
            }
        };
        let fail = |err: SimError| -> Vec<Result<AnalysisReport>> {
            (0..n).map(|_| Err(err.clone())).collect()
        };
        match self.client.call(&request) {
            Err(e) => {
                let err = self.transport_failure("analysis call", &e);
                fail(err)
            }
            Ok(Response::Analysis { results }) if results.len() == n => results,
            Ok(Response::Analysis { results }) => {
                self.notes.push(format!(
                    "remote analysis answered {} results for {n} items",
                    results.len()
                ));
                fail(SimError::Math(MathError::DegenerateInput(
                    TRANSPORT_FAILURE_MSG,
                )))
            }
            Ok(Response::Busy { reason }) => {
                self.notes.push(format!("remote busy: {reason}"));
                fail(SimError::Math(MathError::DegenerateInput(REMOTE_BUSY_MSG)))
            }
            Ok(Response::Error { message }) => {
                self.notes.push(format!("remote error: {message}"));
                fail(SimError::Math(MathError::DegenerateInput(
                    TRANSPORT_FAILURE_MSG,
                )))
            }
            Ok(_) => {
                self.notes
                    .push("remote analysis answered with wrong response kind".to_string());
                fail(SimError::Math(MathError::DegenerateInput(
                    TRANSPORT_FAILURE_MSG,
                )))
            }
        }
    }
}

impl SimBackend for RemoteSim {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        elaborate_for_analysis(topo)?;
        self.ledger.record_simulation();
        self.analyze_remote(WorkItem::Topo(topo.clone()))
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        load_capacitance(netlist)?;
        self.ledger.record_simulation();
        self.analyze_remote(WorkItem::Net(netlist.clone()))
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        for _ in topos {
            self.ledger.record_simulation();
        }
        self.ledger.record_batched_solves(topos.len() as u64);
        self.analyze_remote_many(topos.iter().cloned().map(WorkItem::Topo).collect(), true)
    }

    fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    fn drain_fault_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }
}
