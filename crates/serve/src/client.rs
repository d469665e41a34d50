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
    admit_netlist, admit_topology, bill_batch, AnalysisReport, Result, SimBackend, SimError,
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
/// It bills as the local [`artisan_sim::Simulator`] does
/// ([`admit_topology`], [`admit_netlist`], [`bill_batch`]): rejected
/// candidates locally and unbilled, any other analysis one simulation,
/// batches up front. So a supervised session on a `RemoteSim` produces
/// the same `SessionReport` cost fields as a solo run. Transport
/// failures and server `busy` replies surface as *transient* errors ([`MathError::DegenerateInput`], which
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

    /// Sends `request` for `n` items and returns one result per item. A
    /// transport failure, a `busy` reply or a malformed answer fails
    /// every item transiently and leaves a fault note.
    fn analyze_remote(&mut self, request: &Request, n: usize) -> Vec<Result<AnalysisReport>> {
        let (note, message) = match self.client.call(request) {
            Ok(Response::Analysis { results }) if results.len() == n => return results,
            Err(e) => (format!("remote analysis call: {e}"), TRANSPORT_FAILURE_MSG),
            Ok(Response::Analysis { results }) => (
                format!(
                    "remote analysis answered {} results for {n} items",
                    results.len()
                ),
                TRANSPORT_FAILURE_MSG,
            ),
            Ok(Response::Busy { reason }) => (format!("remote busy: {reason}"), REMOTE_BUSY_MSG),
            Ok(Response::Error { message }) => {
                (format!("remote error: {message}"), TRANSPORT_FAILURE_MSG)
            }
            Ok(_) => (
                "remote analysis answered with wrong response kind".to_string(),
                TRANSPORT_FAILURE_MSG,
            ),
        };
        self.notes.push(note);
        let err = SimError::Math(MathError::DegenerateInput(message));
        (0..n).map(|_| Err(err.clone())).collect()
    }
}

impl SimBackend for RemoteSim {
    fn analyze_topology(&mut self, topo: &Topology) -> Result<AnalysisReport> {
        admit_topology(&mut self.ledger, topo)?;
        let item = WorkItem::Topo(topo.clone());
        self.analyze_remote(&Request::Analyze { item }, 1).remove(0)
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> Result<AnalysisReport> {
        admit_netlist(&mut self.ledger, netlist)?;
        let item = WorkItem::Net(netlist.clone());
        self.analyze_remote(&Request::Analyze { item }, 1).remove(0)
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<Result<AnalysisReport>> {
        bill_batch(&mut self.ledger, topos.len());
        let items = topos.iter().cloned().map(WorkItem::Topo).collect();
        self.analyze_remote(&Request::AnalyzeBatch { items }, topos.len())
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
