//! Propagation of centralized format changes.
//!
//! §3: "changes to the message formats used by distributed programs can
//! be centralized, and XMIT ensures that they are propagated to all
//! program components using these formats."  The toolkit's `refresh` is
//! the pull half; this module supplies the push half: a [`FormatWatcher`]
//! polls a metadata URL and re-binds through a shared [`Xmit`] whenever
//! the document changes, notifying subscribers with the fresh tokens.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::XmitError;
use crate::toolkit::{BindingToken, LoadOutcome, Xmit};

/// A format-change notification.
#[derive(Debug, Clone)]
pub struct FormatChange {
    /// The URL that changed.
    pub url: String,
    /// Freshly bound tokens for every type the document now defines.
    pub tokens: Vec<BindingToken>,
}

/// Watches one metadata URL for changes.
///
/// Dropping the watcher stops the polling thread promptly: the poll wait
/// is a channel receive with a timeout, so a stop signal wakes it
/// immediately instead of letting drop block for up to a full interval.
pub struct FormatWatcher {
    stop_tx: Sender<()>,
    versions_seen: Arc<AtomicU64>,
    poll_errors: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
    receiver: Receiver<FormatChange>,
}

impl FormatWatcher {
    /// Start watching `url` through `toolkit`, polling every `interval`.
    ///
    /// The document is fetched and bound once immediately (so the first
    /// notification is the initial state), then revalidated on the
    /// interval with a conditional GET; a notification fires only when
    /// the content actually changes.
    pub fn start(
        toolkit: Arc<Xmit>,
        url: impl Into<String>,
        interval: Duration,
    ) -> Result<FormatWatcher, XmitError> {
        let url = url.into();
        let versions_seen = Arc::new(AtomicU64::new(0));
        let poll_errors = Arc::new(AtomicU64::new(0));
        let (tx, rx): (Sender<FormatChange>, Receiver<FormatChange>) = channel();
        let (stop_tx, stop_rx): (Sender<()>, Receiver<()>) = channel();

        // Initial load happens on the caller's thread so errors surface.
        let initial = toolkit.load_url_cached(&url)?;
        publish(&toolkit, &url, initial.into_names(), &tx)?;
        versions_seen.store(1, Ordering::Release);

        let (seen2, errors2) = (versions_seen.clone(), poll_errors.clone());
        let thread = std::thread::spawn(move || loop {
            // The interval wait doubles as the stop signal: a message (or
            // the watcher's sender going away) wakes the thread at once.
            match stop_rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            // A conditional GET (or a content-hash match) classifies
            // unchanged documents without re-parsing; only a genuine
            // change comes back as `Loaded`.
            match toolkit.revalidate(&url) {
                Ok(LoadOutcome::Loaded(names)) => {
                    if publish(&toolkit, &url, names, &tx).is_ok() {
                        seen2.fetch_add(1, Ordering::AcqRel);
                    } else {
                        errors2.fetch_add(1, Ordering::AcqRel);
                    }
                }
                Ok(_) => {}
                // A failed poll (server down, document withdrawn, parse
                // error) is not silent: the component keeps its last good
                // binding and the failure is visible on the counter.
                Err(_) => {
                    errors2.fetch_add(1, Ordering::AcqRel);
                }
            }
        });
        Ok(FormatWatcher {
            stop_tx,
            versions_seen,
            poll_errors,
            thread: Some(thread),
            receiver: rx,
        })
    }

    /// The channel change notifications arrive on.
    pub fn changes(&self) -> &Receiver<FormatChange> {
        &self.receiver
    }

    /// How many document versions (including the initial one) have been
    /// seen and bound.
    pub fn versions_seen(&self) -> u64 {
        self.versions_seen.load(Ordering::Acquire)
    }

    /// How many polls failed (fetch error, withdrawn document, bad
    /// content).  The watcher keeps polling — and keeps the last good
    /// binding — but failures are counted, not discarded.
    pub fn poll_errors(&self) -> u64 {
        self.poll_errors.load(Ordering::Acquire)
    }
}

impl Drop for FormatWatcher {
    fn drop(&mut self) {
        // Wake the poll thread out of its interval wait immediately;
        // drop must not block for up to a full poll interval.
        let _ = self.stop_tx.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn publish(
    toolkit: &Xmit,
    url: &str,
    names: Vec<String>,
    tx: &Sender<FormatChange>,
) -> Result<(), XmitError> {
    let tokens: Result<Vec<BindingToken>, XmitError> =
        names.iter().map(|n| toolkit.bind(n)).collect();
    let _ = tx.send(FormatChange { url: url.to_string(), tokens: tokens? });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_ohttp::HttpServer;
    use openmeta_pbio::MachineModel;

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    fn doc(fields: &str) -> String {
        format!(
            r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" />{fields}
               </xsd:complexType>"#
        )
    }

    #[test]
    fn initial_state_delivered_immediately() {
        let http = HttpServer::start().unwrap();
        http.put_xml("/evt.xsd", doc(""));
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        let watcher =
            FormatWatcher::start(toolkit, http.url_for("/evt.xsd"), Duration::from_millis(5))
                .unwrap();
        let change = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(change.tokens.len(), 1);
        assert_eq!(change.tokens[0].type_name, "Evt");
        assert_eq!(watcher.versions_seen(), 1);
    }

    #[test]
    fn central_change_propagates() {
        let http = HttpServer::start().unwrap();
        http.put_xml("/evt.xsd", doc(""));
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        let watcher = FormatWatcher::start(
            toolkit.clone(),
            http.url_for("/evt.xsd"),
            Duration::from_millis(5),
        )
        .unwrap();
        let v1 = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();

        // The format evolves centrally …
        http.put_xml("/evt.xsd", doc(r#"<xsd:element name="b" type="xsd:double" />"#));
        // … and the component hears about it without doing anything.
        let v2 = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_ne!(v1.tokens[0].id(), v2.tokens[0].id());
        assert_eq!(v2.tokens[0].format.fields.len(), 2);
        // The toolkit's binding now reflects v2 for everyone sharing it.
        assert_eq!(toolkit.bind("Evt").unwrap().id(), v2.tokens[0].id());
        // And v1 remains addressable for in-flight messages.
        assert!(toolkit.registry().lookup_id(v1.tokens[0].id()).is_some());
    }

    #[test]
    fn unchanged_documents_do_not_spam() {
        let http = HttpServer::start().unwrap();
        http.put_xml("/evt.xsd", doc(""));
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        let watcher =
            FormatWatcher::start(toolkit, http.url_for("/evt.xsd"), Duration::from_millis(2))
                .unwrap();
        let _initial = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(watcher.versions_seen(), 1, "no change, no notification");
        assert!(watcher.changes().try_recv().is_err());
    }

    #[test]
    fn drop_is_prompt_even_with_long_poll_interval() {
        let http = HttpServer::start().unwrap();
        http.put_xml("/evt.xsd", doc(""));
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        let watcher =
            FormatWatcher::start(toolkit, http.url_for("/evt.xsd"), Duration::from_secs(60))
                .unwrap();
        let _ = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();
        let start = std::time::Instant::now();
        drop(watcher);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must wake the poll thread, not wait out the interval"
        );
    }

    #[test]
    fn failed_polls_are_counted_not_discarded() {
        let http = HttpServer::start().unwrap();
        http.put_xml("/evt.xsd", doc(""));
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        let watcher = FormatWatcher::start(
            toolkit.clone(),
            http.url_for("/evt.xsd"),
            Duration::from_millis(5),
        )
        .unwrap();
        let _ = watcher.changes().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(watcher.poll_errors(), 0);

        // The metadata host goes away; subsequent polls fail.
        drop(http);
        let start = std::time::Instant::now();
        while watcher.poll_errors() == 0 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(watcher.poll_errors() > 0, "poll failures must surface on the counter");
        // The last good binding survives the outage.
        assert!(toolkit.bind("Evt").is_ok());
    }

    #[test]
    fn start_fails_fast_on_bad_url() {
        let toolkit = Arc::new(Xmit::new(MachineModel::native()));
        assert!(FormatWatcher::start(toolkit, "mem://absent", Duration::from_millis(5)).is_err());
    }
}
