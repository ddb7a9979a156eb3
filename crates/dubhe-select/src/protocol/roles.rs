//! The three protocol roles and their step-wise message handlers.
//!
//! Each role is a state machine exposing `handle(msg) → outgoing envelopes`.
//! What a role *can* know is a property of its struct definition:
//!
//! * [`CoordinatorServer`] has fields for a [`PublicKey`] and ciphertext
//!   folds only — there is no field that could store a [`PrivateKey`] or a
//!   plaintext registry/distribution, and its handler returns
//!   [`ProtocolError::PrivateKeyAtServer`] if a key dispatch tries to smuggle
//!   one in. This is the compile-time embodiment of the paper's
//!   honest-but-curious threat model (§5.3.3).
//! * [`AgentNode`] owns the epoch keypair, decrypts the per-try sums the
//!   server forwards and evaluates the L1 try-test.
//! * [`SelectClientNode`] holds the dispatched key material, fills and
//!   encrypts its own registry (Algorithm 1) and computes its own
//!   participation probability (Eq. 6) from the decrypted overall registry.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dubhe_data::ClassDistribution;
use dubhe_he::{
    codec as he_codec, packed_vector_wire_bytes, EncryptedVector, EpochEncryptor, FixedPointCodec,
    HeadroomModel, Keypair, PackedEncryptedVector, PackedRunningFold, PrecomputedEncryptor,
    PrivateKey, PublicKey, RunningFold,
};
use rand::Rng;

use super::codec::RegistryFrame;
use super::message::{ciphertext_width, Envelope, MsgKind, Party, ProtocolMsg};
use super::packing::PackingPolicy;
use crate::codebook::RegistryLayout;
use crate::config::DubheConfig;
use crate::error::ProtocolError;
use crate::probability::participation_probability;
use crate::registry::{register, Registration};
use crate::secure::SecureTryOutcome;
use crate::selector::ClientId;

/// The coordinator slot of the protocol drivers: where server-bound messages
/// are delivered and tentative tries are announced.
///
/// Three implementations cover the deployment spectrum:
///
/// * [`CoordinatorServer`] — the single in-process coordinator;
/// * [`ShardedCoordinator`](crate::protocol::ShardedCoordinator) — registry
///   positions partitioned across N shard folds, merged on completion;
/// * [`TcpTransport`](crate::protocol::TcpTransport) — a client-side
///   connector that carries every server-bound message over a framed TCP
///   stream to a remote coordinator listener (`dubhe-net`'s `ReactorListener`).
///
/// The drivers ([`pump`](crate::protocol::pump),
/// [`run_registration_with`](crate::protocol::run_registration_with),
/// [`run_try`](crate::protocol::run_try)) are generic over this trait, so the
/// same `AgentNode`/`SelectClientNode` exchange runs unchanged against any of
/// the three.
pub trait Coordinator {
    /// Delivers one server-bound envelope, returning the messages it
    /// triggers. Local coordinators unwrap the message; networked ones ship
    /// the whole envelope so the remote side still sees who sent it.
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError>;

    /// Announces one tentative try (§5.3.1): the coordinator will accept
    /// exactly one encrypted distribution from each of `participants` for
    /// `try_index`. Networked implementations carry this over the wire.
    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError>;

    /// Opens a new registration epoch with a (possibly resized) cohort:
    /// clients may have joined or left since the last epoch. Resets every
    /// registration and try fold; frames from older epochs are refused with
    /// [`ProtocolError::StaleEpoch`] afterwards.
    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError>;

    /// Closes the registration phase with whatever registries have arrived —
    /// the explicit partial-cohort fold a straggler deadline triggers. The
    /// total is broadcast to the clients that did register (and the agent);
    /// later registries are refused. Errs with
    /// [`ProtocolError::NothingToClose`] if no registry ever arrived.
    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError>;

    /// Closes one tentative try with whatever contributions have arrived,
    /// forwarding the partial sum (and its true contributor count, which is
    /// what the agent divides by) to the agent. Errs with
    /// [`ProtocolError::UnknownTry`] for a try never announced and
    /// [`ProtocolError::NothingToClose`] if nobody contributed (the try is
    /// abandoned either way — never a hang).
    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError>;

    /// Delivers one deferred `DBH2` registry upload (see [`RegistryFrame`]).
    ///
    /// The default materialises the envelope and routes through
    /// [`deliver`](Self::deliver) — correct for every implementation. Local
    /// coordinators override it to decode the ciphertext block as a
    /// borrowed view and fold residues straight out of the frame bytes,
    /// with the same epoch/slot/packing checks and the same typed errors
    /// as the eager path.
    fn deliver_registry_frame(
        &mut self,
        frame: RegistryFrame,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        self.deliver(frame.materialize()?)
    }
}

/// The record a coordinator keeps of every closed aggregation: who was
/// expected, who actually contributed, and whether the close was partial
/// (straggler deadline / explicit churn) or natural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortOutcome {
    /// The epoch the aggregation ran in.
    pub epoch: u64,
    /// The tentative try, or `None` for the registration fold.
    pub try_index: Option<usize>,
    /// How many contributions were expected.
    pub expected: usize,
    /// How many actually arrived before the close.
    pub contributed: usize,
    /// `true` if the cohort was closed before everyone contributed.
    pub partial: bool,
}

/// Advances a running Montgomery-domain fold by one vector (seeding it from
/// the first arrival). Bit-identical to an [`EncryptedVector::add`] chain —
/// see [`RunningFold`] — with one Montgomery multiply per position instead of a
/// full multiply + division.
fn fold_in(acc: &mut Option<RunningFold>, v: &EncryptedVector) -> Result<(), ProtocolError> {
    match acc {
        None => {
            *acc = Some(RunningFold::new(v));
            Ok(())
        }
        Some(fold) => Ok(fold.fold(v)?),
    }
}

/// The zero-copy counterpart of [`fold_in`]: seeds or advances the fold
/// straight from a borrowed frame view — no per-element ciphertext is ever
/// materialised. Bit-identical to [`fold_in`] of the decoded vector.
fn fold_in_view(
    acc: &mut Option<RunningFold>,
    v: &he_codec::EncryptedVectorView<'_>,
) -> Result<(), ProtocolError> {
    match acc {
        None => {
            *acc = Some(RunningFold::from_view(v));
            Ok(())
        }
        Some(fold) => Ok(fold.fold_view(v)?),
    }
}

/// The packed counterpart of [`fold_in`]: seeds or advances a
/// [`PackedRunningFold`], whose [`HeadroomModel`] refuses foreign slot
/// layouts and any contribution past the declared client budget *before*
/// the multiply — a refused fold leaves the running state untouched.
fn fold_in_packed(
    acc: &mut Option<PackedRunningFold>,
    v: &PackedEncryptedVector,
    model: HeadroomModel,
) -> Result<(), ProtocolError> {
    match acc {
        None => {
            *acc = Some(PackedRunningFold::new(v, model)?);
            Ok(())
        }
        Some(fold) => Ok(fold.fold(v)?),
    }
}

/// Per-try aggregation state on the server.
#[derive(Debug, Clone)]
struct TryFold {
    /// The announced participant set, sorted.
    participants: Vec<ClientId>,
    /// Which announced participants have contributed so far.
    contributed: Vec<bool>,
    received: usize,
    fold: Option<RunningFold>,
    /// The packed fold when the coordinator's policy packs tries (the plain
    /// `fold` stays `None` then, and vice versa).
    packed_fold: Option<PackedRunningFold>,
    /// When the try was announced — the straggler clock.
    opened: Instant,
}

/// The honest-but-curious coordinator. Holds the epoch [`PublicKey`] and
/// running ciphertext folds — nothing else. Registries are folded into the
/// running homomorphic sum *as they arrive*, so server memory is
/// `O(registry_len)` regardless of the client count.
#[derive(Debug)]
pub struct CoordinatorServer {
    public_key: Option<PublicKey>,
    /// Which client ids have registered (length = expected registrations).
    registered: Vec<bool>,
    registrations_received: usize,
    registry_fold: Option<RunningFold>,
    /// The packed registry fold when a [`PackingPolicy`] is configured (the
    /// plain `registry_fold` stays `None` then, and vice versa).
    packed_registry_fold: Option<PackedRunningFold>,
    /// When set, the coordinator accepts **only** packed frames for the
    /// phases the policy covers, validates every arrival against the
    /// policy's slot layout, and refuses any fold past the declared client
    /// budget — the executable headroom model.
    packing: Option<PackingPolicy>,
    /// `true` once the registration total has been broadcast — naturally or
    /// by a partial close. Later registries are refused either way.
    registration_closed: bool,
    /// The current key-rotation epoch. Advanced by a key dispatch stamped
    /// with a newer epoch, or explicitly via [`begin_epoch`](Self::begin_epoch).
    epoch: u64,
    /// When the current registration phase opened — the straggler clock.
    registration_opened: Instant,
    /// If set, [`close_expired`](Self::close_expired) partially closes any
    /// aggregation open longer than this.
    straggler_deadline: Option<Duration>,
    tries: BTreeMap<usize, TryFold>,
    cohort_outcomes: Vec<CohortOutcome>,
    last_verdict: Option<(usize, f64)>,
    bytes_received: usize,
    messages_received: usize,
}

impl CoordinatorServer {
    /// A server expecting `expected_registrations` registry uploads this
    /// epoch (0 for a pure multi-time session).
    pub fn new(expected_registrations: usize) -> Self {
        CoordinatorServer {
            public_key: None,
            registered: vec![false; expected_registrations],
            registrations_received: 0,
            registry_fold: None,
            packed_registry_fold: None,
            packing: None,
            registration_closed: false,
            epoch: 0,
            registration_opened: Instant::now(),
            straggler_deadline: None,
            tries: BTreeMap::new(),
            cohort_outcomes: Vec::new(),
            last_verdict: None,
            bytes_received: 0,
            messages_received: 0,
        }
    }

    /// Builder: sets the straggler deadline after which
    /// [`close_expired`](Self::close_expired) partially closes an open
    /// aggregation. No deadline (the default) means aggregations stay open
    /// until closed explicitly.
    pub fn with_straggler_deadline(mut self, deadline: Duration) -> Self {
        self.straggler_deadline = Some(deadline);
        self
    }

    /// Builder: installs a [`PackingPolicy`]. From here on the coordinator
    /// accepts only packed registries (and, if the policy packs tries, only
    /// packed distributions), folds them lane-wise under the policy's
    /// headroom budget, and emits packed broadcasts/sums. Element-wise
    /// frames for a packed phase — and packed frames without a policy — are
    /// [`ProtocolError::PackingDisagreement`].
    pub fn with_packing(mut self, policy: PackingPolicy) -> Self {
        self.packing = Some(policy);
        self
    }

    /// The installed packing policy, if any.
    pub fn packing(&self) -> Option<&PackingPolicy> {
        self.packing.as_ref()
    }

    /// A server that already learned the epoch public key out-of-band (used
    /// by sessions that skip the key-dispatch step).
    pub fn with_public_key(public_key: PublicKey, expected_registrations: usize) -> Self {
        CoordinatorServer {
            public_key: Some(public_key),
            ..CoordinatorServer::new(expected_registrations)
        }
    }

    /// The epoch public key, once dispatched.
    pub fn public_key(&self) -> Option<&PublicKey> {
        self.public_key.as_ref()
    }

    /// The running encrypted overall registry (complete once every expected
    /// registry arrived), converted out of the fold's Montgomery domain on
    /// demand.
    pub fn encrypted_total(&self) -> Option<EncryptedVector> {
        self.registry_fold.as_ref().map(RunningFold::total)
    }

    /// The running **packed** encrypted overall registry, when a packing
    /// policy is installed and at least one packed registry arrived.
    pub fn packed_encrypted_total(&self) -> Option<PackedEncryptedVector> {
        self.packed_registry_fold
            .as_ref()
            .map(PackedRunningFold::total)
    }

    /// Canonical wire bytes received so far.
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }

    /// Messages received so far.
    pub fn messages_received(&self) -> usize {
        self.messages_received
    }

    /// The agent's verdict for the last multi-time round, if any.
    pub fn last_verdict(&self) -> Option<(usize, f64)> {
        self.last_verdict
    }

    /// The coordinator's current key-rotation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every closed aggregation so far (registrations and tries, partial and
    /// natural), in close order.
    pub fn cohort_outcomes(&self) -> &[CohortOutcome] {
        &self.cohort_outcomes
    }

    /// Checks an incoming envelope's epoch stamp. A key dispatch from a
    /// newer epoch advances the coordinator (same cohort size); anything
    /// else from the wrong epoch is a typed error.
    fn check_epoch(&mut self, envelope: &Envelope) -> Result<(), ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => Ok(()),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => {
                if matches!(envelope.msg, ProtocolMsg::PublicKeyDispatch { .. }) {
                    let expected = self.registered.len();
                    self.enter_epoch(envelope.epoch, expected);
                    Ok(())
                } else {
                    Err(ProtocolError::FutureEpoch {
                        received: envelope.epoch,
                        current: self.epoch,
                    })
                }
            }
        }
    }

    /// Resets all per-epoch aggregation state for `epoch` with a cohort of
    /// `expected_registrations`.
    fn enter_epoch(&mut self, epoch: u64, expected_registrations: usize) {
        self.epoch = epoch;
        self.registered = vec![false; expected_registrations];
        self.registrations_received = 0;
        self.registry_fold = None;
        self.packed_registry_fold = None;
        self.registration_closed = false;
        self.registration_opened = Instant::now();
        self.tries.clear();
        self.last_verdict = None;
    }

    /// Explicitly opens a new epoch with a resized cohort (clients joined or
    /// left). The [`Coordinator`] trait routes here.
    pub fn begin_epoch(&mut self, epoch: u64, expected_registrations: usize) {
        self.enter_epoch(epoch, expected_registrations);
    }

    /// The registration broadcast for the current fold: `Enc(R_A)` to every
    /// *contributing* client plus the agent, stamped with the current epoch.
    /// Packed folds broadcast packed totals — same addressees, same order.
    fn registration_broadcast(&self) -> Vec<Envelope> {
        let msg = match (&self.registry_fold, &self.packed_registry_fold) {
            (Some(fold), _) => ProtocolMsg::EncryptedTotalBroadcast {
                total: fold.total(),
            },
            (None, Some(fold)) => ProtocolMsg::PackedTotalBroadcast {
                total: fold.total(),
            },
            (None, None) => unreachable!("caller checked a fold exists"),
        };
        let mut out = Vec::with_capacity(self.registrations_received + 1);
        for (id, seen) in self.registered.iter().enumerate() {
            if *seen {
                out.push(Envelope {
                    from: Party::Server,
                    to: Party::Client(id),
                    epoch: self.epoch,
                    msg: msg.clone(),
                });
            }
        }
        out.push(Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        });
        out
    }

    /// Closes registration with whatever registries arrived — the explicit
    /// partial-cohort fold. See [`Coordinator::close_registration`].
    pub fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        if self.registration_closed
            || (self.registry_fold.is_none() && self.packed_registry_fold.is_none())
        {
            return Err(ProtocolError::NothingToClose {
                what: "registration",
            });
        }
        self.registration_closed = true;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: None,
            expected: self.registered.len(),
            contributed: self.registrations_received,
            partial: true,
        });
        Ok(self.registration_broadcast())
    }

    /// Closes one tentative try with whatever contributions arrived. See
    /// [`Coordinator::close_try`].
    pub fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        let slot = self
            .tries
            .remove(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: slot.participants.len(),
            contributed: slot.received,
            partial: true,
        });
        let msg = match (slot.fold, slot.packed_fold) {
            (None, None) => return Err(ProtocolError::NothingToClose { what: "try" }),
            (Some(fold), _) => ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: fold.total(),
            },
            (None, Some(fold)) => ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: fold.total(),
            },
        };
        Ok(vec![Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        }])
    }

    /// Partially closes every aggregation open longer than the configured
    /// straggler deadline (a no-op without one): expired tries forward their
    /// partial sums, an expired registration broadcasts its partial total.
    /// Expired tries nobody contributed to are abandoned (recorded, no
    /// envelope). This is what guarantees a round **never hangs** on a
    /// silently dropped client.
    pub fn close_expired(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        let Some(deadline) = self.straggler_deadline else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let expired: Vec<usize> = self
            .tries
            .iter()
            .filter(|(_, slot)| slot.opened.elapsed() >= deadline)
            .map(|(&i, _)| i)
            .collect();
        for try_index in expired {
            match self.close_try(try_index) {
                Ok(envelopes) => out.extend(envelopes),
                Err(ProtocolError::NothingToClose { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if !self.registration_closed
            && self.registry_fold.is_some()
            && self.registration_opened.elapsed() >= deadline
        {
            out.extend(self.close_registration()?);
        }
        Ok(out)
    }

    /// Serializes the coordinator's registration-phase state for crash
    /// recovery: epoch, cohort bitmap, accounting, public key and the
    /// registry fold (via [`RunningFold::snapshot`] — raw in-domain
    /// residues, no re-folding on restore). In-flight tries are *not*
    /// captured: a restarted coordinator re-announces them.
    pub fn snapshot(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::new();
        he_codec::put_u64(&mut out, self.epoch);
        out.push(self.registration_closed as u8);
        he_codec::put_u32(&mut out, self.registered.len() as u32);
        out.extend(self.registered.iter().map(|&b| b as u8));
        he_codec::put_u64(&mut out, self.registrations_received as u64);
        he_codec::put_u64(&mut out, self.bytes_received as u64);
        he_codec::put_u64(&mut out, self.messages_received as u64);
        match &self.public_key {
            None => out.push(0),
            Some(pk) => {
                out.push(1);
                he_codec::encode_public_key(pk, &mut out);
            }
        }
        match &self.packing {
            None => out.push(0),
            Some(policy) => {
                out.push(1);
                policy.encode(&mut out);
            }
        }
        // Fold discriminator: 0 = no fold yet, 1 = element-wise
        // `RunningFold`, 2 = `PackedRunningFold` (which embeds its own
        // headroom model, re-validated on restore).
        match (&self.registry_fold, &self.packed_registry_fold) {
            (None, None) => out.push(0),
            (Some(fold), None) => {
                out.push(1);
                let snap = fold.snapshot().map_err(ProtocolError::He)?;
                he_codec::put_u32(&mut out, snap.len() as u32);
                out.extend_from_slice(&snap);
            }
            (None, Some(fold)) => {
                out.push(2);
                let snap = fold.snapshot().map_err(ProtocolError::He)?;
                he_codec::put_u32(&mut out, snap.len() as u32);
                out.extend_from_slice(&snap);
            }
            (Some(_), Some(_)) => {
                unreachable!("a coordinator folds either packed or element-wise registries")
            }
        }
        Ok(out)
    }

    /// Rebuilds a coordinator from a [`snapshot`](Self::snapshot). The
    /// restored fold is bit-identical to the one that was serialized, so
    /// resuming mid-registration and finishing produces exactly the total an
    /// uninterrupted coordinator would have broadcast.
    pub fn restore(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let cur = &mut &bytes[..];
        let take_flag = |cur: &mut &[u8]| -> Result<bool, ProtocolError> {
            let b = he_codec::take_bytes(cur, 1).map_err(ProtocolError::He)?[0];
            match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(ProtocolError::MalformedFrame {
                    detail: "snapshot flag byte is not 0 or 1".into(),
                }),
            }
        };
        let epoch = he_codec::take_u64(cur).map_err(ProtocolError::He)?;
        let registration_closed = take_flag(cur)?;
        let expected = he_codec::take_u32(cur).map_err(ProtocolError::He)? as usize;
        if expected > cur.len() {
            return Err(ProtocolError::MalformedFrame {
                detail: "snapshot cohort bitmap overruns the payload".into(),
            });
        }
        let registered: Vec<bool> = he_codec::take_bytes(cur, expected)
            .map_err(ProtocolError::He)?
            .iter()
            .map(|&b| b != 0)
            .collect();
        let registrations_received = he_codec::take_u64(cur).map_err(ProtocolError::He)? as usize;
        if registrations_received != registered.iter().filter(|&&b| b).count() {
            return Err(ProtocolError::MalformedFrame {
                detail: "snapshot registration count disagrees with its cohort bitmap".into(),
            });
        }
        let bytes_received = he_codec::take_u64(cur).map_err(ProtocolError::He)? as usize;
        let messages_received = he_codec::take_u64(cur).map_err(ProtocolError::He)? as usize;
        let public_key = if take_flag(cur)? {
            Some(he_codec::decode_public_key(cur).map_err(ProtocolError::He)?)
        } else {
            None
        };
        let packing = if take_flag(cur)? {
            Some(PackingPolicy::decode(cur)?)
        } else {
            None
        };
        let fold_kind = he_codec::take_bytes(cur, 1).map_err(ProtocolError::He)?[0];
        let mut registry_fold = None;
        let mut packed_registry_fold = None;
        match fold_kind {
            0 => {}
            1 => {
                if packing.is_some() {
                    return Err(ProtocolError::MalformedFrame {
                        detail: "snapshot has an element-wise fold under a packing policy".into(),
                    });
                }
                let len = he_codec::take_u32(cur).map_err(ProtocolError::He)? as usize;
                let snap = he_codec::take_bytes(cur, len).map_err(ProtocolError::He)?;
                registry_fold = Some(RunningFold::restore(snap).map_err(ProtocolError::He)?);
            }
            2 => {
                let Some(policy) = &packing else {
                    return Err(ProtocolError::MalformedFrame {
                        detail: "snapshot has a packed fold but no packing policy".into(),
                    });
                };
                let len = he_codec::take_u32(cur).map_err(ProtocolError::He)? as usize;
                let snap = he_codec::take_bytes(cur, len).map_err(ProtocolError::He)?;
                let fold = PackedRunningFold::restore(snap).map_err(ProtocolError::He)?;
                if *fold.model() != policy.registry_model() {
                    return Err(ProtocolError::MalformedFrame {
                        detail: "snapshot packed fold disagrees with the packing policy".into(),
                    });
                }
                packed_registry_fold = Some(fold);
            }
            _ => {
                return Err(ProtocolError::MalformedFrame {
                    detail: "snapshot fold discriminator is not 0, 1 or 2".into(),
                })
            }
        }
        let mut server = CoordinatorServer::new(0);
        server.epoch = epoch;
        server.registration_closed = registration_closed;
        server.registered = registered;
        server.registrations_received = registrations_received;
        server.bytes_received = bytes_received;
        server.messages_received = messages_received;
        server.public_key = public_key;
        server.packing = packing;
        server.registry_fold = registry_fold;
        server.packed_registry_fold = packed_registry_fold;
        Ok(server)
    }

    /// Announces one tentative try (§5.3.1: the server performs the `H`
    /// tentative selections): the server will fold exactly one encrypted
    /// distribution from each of `participants` for `try_index` and then
    /// forward the sum to the agent. Contributions from anyone else — or a
    /// second contribution from the same client — are rejected.
    pub fn announce_try(&mut self, try_index: usize, participants: &[ClientId]) {
        let mut sorted = participants.to_vec();
        sorted.sort_unstable();
        let contributed = vec![false; sorted.len()];
        self.tries.insert(
            try_index,
            TryFold {
                participants: sorted,
                contributed,
                received: 0,
                fold: None,
                packed_fold: None,
                opened: Instant::now(),
            },
        );
    }

    /// Shared registration bookkeeping for the packed and element-wise arms:
    /// exactly one registry per known client, and none once the epoch total
    /// has been broadcast (naturally or by a partial close) — duplicates,
    /// strangers and stragglers would silently corrupt the homomorphic sum
    /// (a real concern once a retrying networked transport sits underneath),
    /// so they are protocol errors instead. Marks the client's one slot.
    fn claim_registration_slot(&mut self, client: ClientId) -> Result<(), ProtocolError> {
        if self.registration_closed || self.registrations_received == self.registered.len() {
            return Err(ProtocolError::EpochComplete { client });
        }
        match self.registered.get_mut(client) {
            None => Err(ProtocolError::UnknownContributor {
                client,
                try_index: None,
            }),
            Some(seen) if *seen => Err(ProtocolError::DuplicateContribution {
                client,
                try_index: None,
            }),
            Some(seen) => {
                *seen = true;
                Ok(())
            }
        }
    }

    /// Counts one accepted registration; when the cohort completes, performs
    /// Fig. 4 step 3 — broadcast `Enc(R_A)` to every client and the agent;
    /// nobody but the key holders can open it.
    fn finish_registration(&mut self) -> Vec<Envelope> {
        self.registrations_received += 1;
        if self.registrations_received == self.registered.len() {
            self.registration_closed = true;
            self.cohort_outcomes.push(CohortOutcome {
                epoch: self.epoch,
                try_index: None,
                expected: self.registered.len(),
                contributed: self.registrations_received,
                partial: false,
            });
            self.registration_broadcast()
        } else {
            Vec::new()
        }
    }

    /// Shared per-try bookkeeping: the try must be announced, the client one
    /// of its participants, and this its first contribution. Marks the
    /// contribution and returns the participant index (so a rejected fold
    /// can un-mark it).
    fn claim_try_slot(
        &mut self,
        try_index: usize,
        client: ClientId,
    ) -> Result<usize, ProtocolError> {
        let slot = self
            .tries
            .get_mut(&try_index)
            .ok_or(ProtocolError::UnknownTry { try_index })?;
        let idx = slot.participants.binary_search(&client).map_err(|_| {
            ProtocolError::UnknownContributor {
                client,
                try_index: Some(try_index),
            }
        })?;
        if slot.contributed[idx] {
            return Err(ProtocolError::DuplicateContribution {
                client,
                try_index: Some(try_index),
            });
        }
        slot.contributed[idx] = true;
        Ok(idx)
    }

    /// If every announced participant of `try_index` has contributed,
    /// removes the try and forwards its sum (packed or element-wise,
    /// whichever fold ran) to the agent.
    fn finish_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        let done = {
            let slot = self.tries.get(&try_index).expect("claimed above");
            slot.received == slot.participants.len()
        };
        if !done {
            return Ok(Vec::new());
        }
        let slot = self.tries.remove(&try_index).expect("present");
        self.cohort_outcomes.push(CohortOutcome {
            epoch: self.epoch,
            try_index: Some(try_index),
            expected: slot.participants.len(),
            contributed: slot.received,
            partial: false,
        });
        let msg = match (slot.fold, slot.packed_fold) {
            (Some(fold), _) => ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: fold.total(),
            },
            (None, Some(fold)) => ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors: slot.received,
                sum: fold.total(),
            },
            (None, None) => unreachable!("non-empty try"),
        };
        Ok(vec![Envelope {
            from: Party::Server,
            to: Party::Agent,
            epoch: self.epoch,
            msg,
        }])
    }

    /// Handles one incoming message, returning the messages it triggers.
    pub fn handle(&mut self, msg: ProtocolMsg) -> Result<Vec<Envelope>, ProtocolError> {
        self.messages_received += 1;
        self.bytes_received += msg.wire_bytes();
        match msg {
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            } => {
                if private_key.is_some() {
                    return Err(ProtocolError::PrivateKeyAtServer);
                }
                self.public_key = Some(public_key);
                Ok(Vec::new())
            }
            ProtocolMsg::EncryptedRegistry { client, registry } => {
                if self.packing.is_some() {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: true,
                        kind: MsgKind::Registry,
                    });
                }
                self.claim_registration_slot(client)?;
                // A payload the fold rejects (wrong shape, foreign key) must
                // not burn the client's one registration slot: unmark it so
                // a well-formed retry is still possible.
                if let Err(e) = fold_in(&mut self.registry_fold, &registry) {
                    self.registered[client] = false;
                    return Err(e);
                }
                Ok(self.finish_registration())
            }
            ProtocolMsg::PackedRegistry { client, registry } => {
                let Some(policy) = self.packing else {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: false,
                        kind: MsgKind::Registry,
                    });
                };
                self.claim_registration_slot(client)?;
                // Same un-burn discipline as the element-wise arm; the
                // headroom model additionally refuses foreign slot layouts
                // and any fold past the declared client budget *before* the
                // multiply, so a refused registry leaves the sum untouched.
                if let Err(e) = fold_in_packed(
                    &mut self.packed_registry_fold,
                    &registry,
                    policy.registry_model(),
                ) {
                    self.registered[client] = false;
                    return Err(e);
                }
                Ok(self.finish_registration())
            }
            ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution,
            } => {
                if self.packing.is_some_and(|p| p.packs_tries()) {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: true,
                        kind: MsgKind::Distribution,
                    });
                }
                let idx = self.claim_try_slot(try_index, client)?;
                let slot = self.tries.get_mut(&try_index).expect("claimed above");
                if let Err(e) = fold_in(&mut slot.fold, &distribution) {
                    slot.contributed[idx] = false;
                    return Err(e);
                }
                slot.received += 1;
                self.finish_try(try_index)
            }
            ProtocolMsg::PackedDistribution {
                client,
                try_index,
                distribution,
            } => {
                let Some(model) = self.packing.and_then(|p| p.try_model()) else {
                    return Err(ProtocolError::PackingDisagreement {
                        role: "server",
                        expected_packed: false,
                        kind: MsgKind::Distribution,
                    });
                };
                let idx = self.claim_try_slot(try_index, client)?;
                let slot = self.tries.get_mut(&try_index).expect("claimed above");
                if let Err(e) = fold_in_packed(&mut slot.packed_fold, &distribution, model) {
                    slot.contributed[idx] = false;
                    return Err(e);
                }
                slot.received += 1;
                self.finish_try(try_index)
            }
            ProtocolMsg::TryVerdict { best_try, distance } => {
                self.last_verdict = Some((best_try, distance));
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "server",
                kind: other.kind(),
            }),
        }
    }
}

impl Coordinator for CoordinatorServer {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.check_epoch(&envelope)?;
        CoordinatorServer::handle(self, envelope.msg)
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        CoordinatorServer::announce_try(self, try_index, participants);
        Ok(())
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        CoordinatorServer::begin_epoch(self, epoch, expected_registrations);
        Ok(())
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        CoordinatorServer::close_registration(self)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        CoordinatorServer::close_try(self, try_index)
    }

    fn deliver_registry_frame(
        &mut self,
        frame: RegistryFrame,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        // The vector decode happens first: a malformed ciphertext block
        // surfaces before any delivery bookkeeping, exactly where the eager
        // path's frame decode would have refused the frame.
        let view = frame.view()?;
        // `check_epoch` for a message that is never a key dispatch.
        match frame.epoch().cmp(&self.epoch) {
            std::cmp::Ordering::Equal => {}
            std::cmp::Ordering::Less => {
                return Err(ProtocolError::StaleEpoch {
                    received: frame.epoch(),
                    current: self.epoch,
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(ProtocolError::FutureEpoch {
                    received: frame.epoch(),
                    current: self.epoch,
                })
            }
        }
        self.messages_received += 1;
        // `ProtocolMsg::wire_bytes` for a registry: the client scalar plus
        // the canonical ciphertext payload — which is the view's block.
        self.bytes_received += 8 + view.ciphertext_payload_bytes();
        if self.packing.is_some() {
            return Err(ProtocolError::PackingDisagreement {
                role: "server",
                expected_packed: true,
                kind: MsgKind::Registry,
            });
        }
        let client = frame.client();
        self.claim_registration_slot(client)?;
        // Same un-burn discipline as the eager arm.
        if let Err(e) = fold_in_view(&mut self.registry_fold, &view) {
            self.registered[client] = false;
            return Err(e);
        }
        Ok(self.finish_registration())
    }
}

/// The keypair-owning agent: dispatches the epoch key, decrypts the per-try
/// sums the server forwards, and issues the L1 try-test verdict.
#[derive(Debug)]
pub struct AgentNode {
    keypair: Keypair,
    key_bits: u64,
    epoch: u64,
    codec: FixedPointCodec,
    classes: usize,
    overall_registry: Option<Vec<u64>>,
    expected_tries: usize,
    try_outcomes: BTreeMap<usize, SecureTryOutcome>,
    verdict: Option<(usize, f64)>,
}

impl AgentNode {
    /// Generates a fresh epoch keypair (and pays the key's one-time
    /// fixed-base precomputation so every client encrypts on the fast path).
    pub fn new<R: Rng + ?Sized>(key_bits: u64, classes: usize, rng: &mut R) -> Self {
        let keypair = Keypair::generate(key_bits, rng);
        let _ = PrecomputedEncryptor::new(&keypair.public, rng);
        AgentNode {
            key_bits,
            ..AgentNode::from_keypair(keypair, classes)
        }
    }

    /// Wraps existing key material (used by compatibility drivers whose
    /// callers generated the keypair themselves).
    pub fn from_keypair(keypair: Keypair, classes: usize) -> Self {
        let key_bits = keypair.public.n().bits();
        AgentNode {
            keypair,
            key_bits,
            epoch: 0,
            codec: FixedPointCodec::default(),
            classes,
            overall_registry: None,
            expected_tries: 0,
            try_outcomes: BTreeMap::new(),
            verdict: None,
        }
    }

    /// The agent's current key-rotation epoch (starts at 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rotates the epoch keypair: generates a fresh keypair at the same key
    /// size, advances the epoch, forgets everything derived from the old key
    /// (overall registry, try outcomes, verdict) and returns the key
    /// dispatches — stamped with the new epoch — that drive cohort
    /// re-registration. Stale frames from the old epoch are refused by every
    /// receiver from here on.
    pub fn rotate_epoch<R: Rng + ?Sized>(&mut self, clients: usize, rng: &mut R) -> Vec<Envelope> {
        let keypair = Keypair::generate(self.key_bits, rng);
        let _ = PrecomputedEncryptor::new(&keypair.public, rng);
        self.keypair = keypair;
        self.epoch += 1;
        self.overall_registry = None;
        self.try_outcomes.clear();
        self.verdict = None;
        self.dispatch_keys(clients)
    }

    /// Delivers one envelope, checking its epoch stamp first. The agent is
    /// the epoch's author: nothing another party sends may advance it, so
    /// both directions of disagreement are typed errors.
    pub fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => self.handle(envelope.msg),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => Err(ProtocolError::FutureEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
        }
    }

    /// The epoch public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.keypair.public
    }

    /// The epoch private key (the agent is its only protocol-level owner
    /// besides the clients it dispatches to).
    pub fn private_key(&self) -> &PrivateKey {
        &self.keypair.private
    }

    /// Fig. 4 step 1: key dispatch. Clients receive the full keypair (they
    /// decrypt the total themselves); the server receives the public key
    /// only. The server copy is emitted first so it can verify uploads.
    pub fn dispatch_keys(&self, clients: usize) -> Vec<Envelope> {
        let mut out = Vec::with_capacity(clients + 1);
        out.push(Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: self.epoch,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: self.keypair.public.clone(),
                private_key: None,
            },
        });
        for id in 0..clients {
            out.push(Envelope {
                from: Party::Agent,
                to: Party::Client(id),
                epoch: self.epoch,
                msg: ProtocolMsg::PublicKeyDispatch {
                    public_key: self.keypair.public.clone(),
                    private_key: Some(self.keypair.private.clone()),
                },
            });
        }
        out
    }

    /// Starts a multi-time round of `h` tries: clears previous outcomes; the
    /// verdict is emitted after the `h`-th sum is decrypted.
    pub fn expect_tries(&mut self, h: usize) {
        self.expected_tries = h;
        self.try_outcomes.clear();
        self.verdict = None;
    }

    /// The overall registry decrypted from the server broadcast, if seen.
    pub fn overall_registry(&self) -> Option<&[u64]> {
        self.overall_registry.as_deref()
    }

    /// The per-try outcomes decrypted so far, in try order.
    pub fn try_outcomes(&self) -> Vec<SecureTryOutcome> {
        self.try_outcomes.values().cloned().collect()
    }

    /// The verdict of the completed multi-time round, if all tries arrived.
    pub fn verdict(&self) -> Option<(usize, f64)> {
        self.verdict
    }

    /// Records one decrypted try sum (however it travelled — element-wise or
    /// packed), scores it against the uniform distribution, and emits the
    /// verdict once every expected try has arrived.
    fn record_try_outcome(
        &mut self,
        try_index: usize,
        contributors: usize,
        decrypted: Vec<u64>,
        ciphertext_bytes: usize,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        let population = self.codec.decode_average(&decrypted, contributors);
        let p_u = vec![1.0 / self.classes as f64; self.classes];
        let distance = dubhe_data::l1_distance(&population, &p_u);
        self.try_outcomes.insert(
            try_index,
            SecureTryOutcome {
                population,
                distance_to_uniform: distance,
                ciphertext_bytes,
                messages: contributors,
            },
        );
        if self.expected_tries > 0 && self.try_outcomes.len() == self.expected_tries {
            let (best_try, distance) = self
                .try_outcomes
                .iter()
                .min_by(|a, b| {
                    a.1.distance_to_uniform
                        .partial_cmp(&b.1.distance_to_uniform)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(&i, o)| (i, o.distance_to_uniform))
                .expect("expected_tries > 0");
            self.verdict = Some((best_try, distance));
            return Ok(vec![Envelope {
                from: Party::Agent,
                to: Party::Server,
                epoch: self.epoch,
                msg: ProtocolMsg::TryVerdict { best_try, distance },
            }]);
        }
        Ok(Vec::new())
    }

    /// Handles one incoming message, returning the messages it triggers.
    pub fn handle(&mut self, msg: ProtocolMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match msg {
            ProtocolMsg::EncryptedTotalBroadcast { total } => {
                self.overall_registry = Some(total.decrypt_u64(&self.keypair.private)?);
                Ok(Vec::new())
            }
            ProtocolMsg::PackedTotalBroadcast { total } => {
                self.overall_registry = Some(total.decrypt_u64(&self.keypair.private));
                Ok(Vec::new())
            }
            ProtocolMsg::EncryptedDistributionSum {
                try_index,
                contributors,
                sum,
            } => {
                let ciphertext_bytes =
                    contributors * self.classes * ciphertext_width(&self.keypair.public);
                let decrypted = sum.decrypt_u64(&self.keypair.private)?;
                self.record_try_outcome(try_index, contributors, decrypted, ciphertext_bytes)
            }
            ProtocolMsg::PackedDistributionSum {
                try_index,
                contributors,
                sum,
            } => {
                // Each contributor uploaded one packed vector shaped like the
                // sum, so the uplink ciphertext traffic of the try is
                // `contributors ×` the sum's own packed wire size.
                let ciphertext_bytes = contributors * packed_vector_wire_bytes(&sum);
                let decrypted = sum.decrypt_u64(&self.keypair.private);
                self.record_try_outcome(try_index, contributors, decrypted, ciphertext_bytes)
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "agent",
                kind: other.kind(),
            }),
        }
    }
}

/// The registration plan a full selection client executes on key receipt.
#[derive(Debug, Clone)]
struct RegistrationPlan {
    layout: RegistryLayout,
    thresholds: Vec<f64>,
    k: usize,
}

/// An ordinary selection client: fills and encrypts its registry, decrypts
/// the broadcast total with the dispatched key, and computes its own
/// participation probability.
#[derive(Debug)]
pub struct SelectClientNode {
    id: ClientId,
    distribution: ClassDistribution,
    codec: FixedPointCodec,
    plan: Option<RegistrationPlan>,
    /// When set, the client uploads packed registries (and, if the policy
    /// packs tries, packed distributions) under the policy's slot layout.
    packing: Option<PackingPolicy>,
    epoch: u64,
    public_key: Option<PublicKey>,
    private_key: Option<PrivateKey>,
    encryptor: Option<EpochEncryptor>,
    registration: Option<Registration>,
    overall_registry: Option<Vec<u64>>,
}

impl SelectClientNode {
    /// A client that will register (Algorithm 1) under `config` as soon as
    /// the epoch key arrives.
    pub fn new(id: ClientId, distribution: ClassDistribution, config: &DubheConfig) -> Self {
        let plan = RegistrationPlan {
            layout: config.validate(),
            thresholds: config.effective_thresholds(),
            k: config.k,
        };
        SelectClientNode {
            plan: Some(plan),
            ..SelectClientNode::without_registration(id, distribution)
        }
    }

    /// A client that only takes part in multi-time distribution exchanges
    /// (no registration phase).
    pub fn without_registration(id: ClientId, distribution: ClassDistribution) -> Self {
        SelectClientNode {
            id,
            distribution,
            codec: FixedPointCodec::default(),
            plan: None,
            packing: None,
            epoch: 0,
            public_key: None,
            private_key: None,
            encryptor: None,
            registration: None,
            overall_registry: None,
        }
    }

    /// Builder: uploads under a [`PackingPolicy`] — the registry (and, when
    /// the policy packs tries, each distribution) is slot-packed before
    /// encryption. The coordinator must hold the *same* policy: a mismatched
    /// layout is refused on its side with a typed error.
    pub fn with_packing(mut self, policy: PackingPolicy) -> Self {
        self.packing = Some(policy);
        self
    }

    /// The client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The client's current key-rotation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs epoch key material without going through a dispatch message
    /// (used by compatibility drivers). Any encryptor built for a previous
    /// key is discarded.
    pub fn install_keys(&mut self, public: PublicKey, private: PrivateKey) {
        self.public_key = Some(public);
        self.private_key = Some(private);
        self.encryptor = None;
    }

    /// Delivers one envelope, checking its epoch stamp first. A key dispatch
    /// from a *newer* epoch is how the client learns of a rotation: it adopts
    /// the epoch, forgets the old key material and (if it holds a
    /// registration plan) re-registers under the new key. Anything else from
    /// the wrong epoch is a typed error.
    pub fn deliver<R: Rng + ?Sized>(
        &mut self,
        envelope: Envelope,
        rng: &mut R,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match envelope.epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Equal => self.handle(envelope.msg, rng),
            std::cmp::Ordering::Less => Err(ProtocolError::StaleEpoch {
                received: envelope.epoch,
                current: self.epoch,
            }),
            std::cmp::Ordering::Greater => {
                if matches!(envelope.msg, ProtocolMsg::PublicKeyDispatch { .. }) {
                    self.epoch = envelope.epoch;
                    self.encryptor = None;
                    self.overall_registry = None;
                    self.handle(envelope.msg, rng)
                } else {
                    Err(ProtocolError::FutureEpoch {
                        received: envelope.epoch,
                        current: self.epoch,
                    })
                }
            }
        }
    }

    /// The client's registration, once the key arrived and Algorithm 1 ran.
    pub fn registration(&self) -> Option<&Registration> {
        self.registration.as_ref()
    }

    /// The overall registry this client decrypted from the broadcast.
    pub fn overall_registry(&self) -> Option<&[u64]> {
        self.overall_registry.as_deref()
    }

    /// Eq. 6: the participation probability this client computes *for
    /// itself* from the decrypted overall registry and its own category.
    pub fn participation_probability(&self) -> Option<f64> {
        let overall = self.overall_registry.as_ref()?;
        let registration = self.registration.as_ref()?;
        let k = self.plan.as_ref()?.k;
        Some(participation_probability(overall, registration.position, k))
    }

    /// The client's epoch encryptor, built on first use. Clients hold the
    /// dispatched *keypair*, so this is normally the CRT-split
    /// [`CrtEncryptor`](dubhe_he::CrtEncryptor) fast path; a client that
    /// somehow only has the public half falls back to the
    /// [`PrecomputedEncryptor`] — the ciphertexts are bit-identical either
    /// way.
    fn encryptor<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<&EpochEncryptor, ProtocolError> {
        if self.encryptor.is_none() {
            let pk = self
                .public_key
                .clone()
                .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
            self.encryptor = Some(EpochEncryptor::for_key_material(
                &pk,
                self.private_key.as_ref(),
                rng,
            ));
        }
        Ok(self.encryptor.as_ref().expect("just installed"))
    }

    /// §5.3.1: encrypts this client's scaled label distribution for one
    /// tentative try and addresses it to the server.
    pub fn encrypt_distribution<R: Rng + ?Sized>(
        &mut self,
        try_index: usize,
        rng: &mut R,
    ) -> Result<Envelope, ProtocolError> {
        let scaled = self.codec.encode_vec(&self.distribution.proportions());
        let packer = self.packing.filter(|p| p.packs_tries()).map(|p| p.packer());
        let id = self.id;
        let encryptor = self.encryptor(rng)?;
        let msg = match packer {
            Some(packer) => ProtocolMsg::PackedDistribution {
                client: id,
                try_index,
                distribution: PackedEncryptedVector::encrypt_with(packer, encryptor, &scaled, rng)?,
            },
            None => ProtocolMsg::EncryptedDistribution {
                client: id,
                try_index,
                distribution: EncryptedVector::encrypt_u64_with(encryptor, &scaled, rng),
            },
        };
        Ok(Envelope {
            from: Party::Client(self.id),
            to: Party::Server,
            epoch: self.epoch,
            msg,
        })
    }

    /// Handles one incoming message, returning the messages it triggers.
    pub fn handle<R: Rng + ?Sized>(
        &mut self,
        msg: ProtocolMsg,
        rng: &mut R,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match msg {
            ProtocolMsg::PublicKeyDispatch {
                public_key,
                private_key,
            } => {
                let private_key =
                    private_key.ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                self.install_keys(public_key, private_key);
                if let Some(plan) = self.plan.clone() {
                    // Fig. 4 step 2: register, encrypt, upload — slot-packed
                    // when a packing policy is installed.
                    let registration = register(&self.distribution, &plan.layout, &plan.thresholds);
                    let packer = self.packing.map(|p| p.packer());
                    let id = self.id;
                    let encryptor = self.encryptor(rng)?;
                    let msg = match packer {
                        Some(packer) => ProtocolMsg::PackedRegistry {
                            client: id,
                            registry: PackedEncryptedVector::encrypt_with(
                                packer,
                                encryptor,
                                &registration.registry,
                                rng,
                            )?,
                        },
                        None => ProtocolMsg::EncryptedRegistry {
                            client: id,
                            registry: EncryptedVector::encrypt_u64_with(
                                encryptor,
                                &registration.registry,
                                rng,
                            ),
                        },
                    };
                    self.registration = Some(registration);
                    Ok(vec![Envelope {
                        from: Party::Client(self.id),
                        to: Party::Server,
                        epoch: self.epoch,
                        msg,
                    }])
                } else {
                    Ok(Vec::new())
                }
            }
            ProtocolMsg::EncryptedTotalBroadcast { total } => {
                let sk = self
                    .private_key
                    .as_ref()
                    .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                self.overall_registry = Some(total.decrypt_u64(sk)?);
                Ok(Vec::new())
            }
            ProtocolMsg::PackedTotalBroadcast { total } => {
                let sk = self
                    .private_key
                    .as_ref()
                    .ok_or(ProtocolError::MissingKeyMaterial { role: "client" })?;
                self.overall_registry = Some(total.decrypt_u64(sk));
                Ok(Vec::new())
            }
            other => Err(ProtocolError::UnexpectedMessage {
                role: "client",
                kind: other.kind(),
            }),
        }
    }
}
