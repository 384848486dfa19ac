//! The distributed Forgiving Tree.
//!
//! Every node runs [`FtNode`], a processor that knows only Table 1's fields
//! (its parent, its will, the portion of its owner's will addressed to it,
//! and its helper-role fields) and reacts to deletion notices and protocol
//! messages over the synchronous `ft-sim` network. No processor ever reads
//! global state.
//!
//! # Virtual references
//!
//! A real node appears in the virtual tree up to twice: as its own
//! *position* and as the simulator of one helper. Messages name virtual
//! nodes with a [`VRef`] — `(simulator, is_helper)` — which is unambiguous
//! because each node simulates at most one helper (INV-A).
//!
//! # Choreography of one heal (O(1) rounds)
//!
//! - **notice**: the adversary deletes `x`; the simulator informs `x`'s
//!   graph neighbors, each of which classifies its relation(s) to `x` from
//!   local state alone:
//!   1. *`x` was my will representative*: if I hold `x`'s LeafWill I prune
//!      the slot; otherwise `x`'s heir will contact me.
//!   2. *`x` owned my portion*: I execute the portion — re-attach my slot's
//!      occupant (bypassing my ready vnode if I was a promoted rep,
//!      [`FtMsg::Reattach`]), take on my assigned SubRT helper, and — as
//!      heir — become a ready heir ([`FtMsg::ReplaceRep`]) or take over
//!      `x`'s role verbatim ([`FtMsg::NewSim`]).
//!   3. *`x`'s position hung under my helper*: I splice or dissolve the
//!      redundant helper ([`FtMsg::SpliceChild`]/[`FtMsg::SpliceParent`]/
//!      [`FtMsg::SlotDissolved`]) and adopt `x`'s LeafWill if I hold it.
//!   4. otherwise I wait: the responsible orchestrator reaches me within a
//!      round.
//! - **rounds 2–3**: receivers update fields; will owners re-send the O(1)
//!   changed portions ([`FtMsg::Portion`]); fresh LeafWills are filed.
//!
//! Edges are *interest-tracked*: each endpoint derives its desired neighbor
//! set from its fields; an edge disappears only after both endpoints release
//! it ([`FtMsg::Release`]), so a handover can never sever a link the other
//! side still needs.
//!
//! The differential test-suite drives this implementation and the spec
//! engine with identical deletion sequences and asserts the healed graphs
//! are identical after every step.

use crate::inline::{FixedVec, InlineVec};
use crate::report::HealReport;
use crate::shape::{Portion, PortionRef, ShapeDelta, SubRtShape};
use ft_graph::tree::RootedTree;
use ft_graph::{Graph, NodeId};
use ft_sim::{Ctx, Network, Process};

/// A virtual-node reference: the real simulator plus which of its (at most
/// two) virtual nodes is meant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct VRef {
    /// The simulating real node.
    pub sim: NodeId,
    /// `false`: the node's own position; `true`: the helper it simulates.
    pub helper: bool,
}

impl VRef {
    /// The position vnode of `v`.
    pub fn pos(v: NodeId) -> Self {
        VRef {
            sim: v,
            helper: false,
        }
    }

    /// The helper vnode simulated by `v`.
    pub fn helper(v: NodeId) -> Self {
        VRef {
            sim: v,
            helper: true,
        }
    }
}

/// Helper-role fields (`hparent`, `hchildren`, `isreadyheir` of Table 1).
///
/// Both lists are inline (helpers are binary, ready vnodes have one child),
/// so a role is copied, filed and compared without touching the heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DRole {
    /// Parent of the simulated helper (`None` = it is the virtual root).
    pub hparent: Option<VRef>,
    /// Children of the simulated helper.
    pub hchildren: InlineVec<VRef, 2>,
    /// Slots of an under-construction SubRT whose occupants have not yet
    /// attached (drained within the heal's O(1) rounds). Only a portion's
    /// two helper children fill it, so it never holds more than two.
    pub pending_slots: FixedVec<NodeId, 2>,
    /// Ready-state heir (exactly one child).
    pub ready: bool,
}

impl DRole {
    fn child_count(&self) -> usize {
        self.hchildren.len() + self.pending_slots.len()
    }
}

/// What the heir does when the owner dies (Algorithm 3.6 lines 8-17).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeirMode {
    /// Owner had no helper duties: become a ready heir above the SubRT root.
    Ready {
        /// The SubRT root helper; `None` when the heir's own slot occupant
        /// is the entire SubRT (single-slot shape).
        subrt_root: Option<VRef>,
    },
    /// Owner had helper duties: take them over verbatim.
    TakeOver {
        /// The owner's role fields as of the last will refresh.
        role: DRole,
    },
}

/// The portion of a will addressed to one representative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DPortion {
    /// The will's owner.
    pub owner: NodeId,
    /// Whether this representative is the heir.
    pub is_heir: bool,
    /// Where this rep's slot occupant re-attaches (`nextparent`); `None`
    /// means "at the top" (single-slot shape: under the heir's ready vnode
    /// or the owner's parent).
    pub next_parent: Option<VRef>,
    /// Helper assignment for non-heirs: `nexthparent` (`None` = this helper
    /// is the SubRT root and attaches to `top`) and the two children as
    /// shape references.
    pub helper: Option<(Option<VRef>, [PortionRef; 2])>,
    /// Heir-only: ready vs take-over data.
    pub heir_mode: Option<HeirMode>,
    /// Where the SubRT root attaches: the heir's ready vnode when the owner
    /// is role-free, else the owner's parent vnode.
    pub top: VRef,
    /// The owner's parent vnode at refresh time (`p` of Algorithm 3.6);
    /// `None` when the owner simulates the virtual root's real node.
    pub owner_parent: Option<VRef>,
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtMsg {
    /// Will owner → representative: a fresh portion.
    Portion(Box<DPortion>),
    /// Leaf → its parent: helper duties to inherit (`None` = no duties).
    LeafWill(Option<DRole>),
    /// Slot occupant → parent helper's simulator: "vnode `child` now hangs
    /// under your vnode `your_end`, occupying slot `slot`".
    OccupySlot {
        /// The leaf slot being occupied (named by its representative).
        slot: NodeId,
        /// The occupant vnode.
        child: VRef,
        /// Which of the receiver's vnodes is the parent.
        your_end: VRef,
        /// Stale child entry to replace, if the receiver predates this heal.
        replacing: Option<VRef>,
    },
    /// "Vnode `old` is henceforth simulated as `new`."
    NewSim {
        /// The vnode's previous identity.
        old: VRef,
        /// Its new identity.
        new: VRef,
        /// Whether the receiver is the vnode's parent (else a child/other).
        receiver_is_parent: bool,
        /// Which of the receiver's vnodes is adjacent (parent case only).
        your_end: VRef,
        /// Set when the vnode is a ready heir rooting the receiver's will
        /// slot for dead rep `NodeId`: triggers `replace_rep`.
        ready_rep_replace: Option<NodeId>,
    },
    /// Heir → owner's parent: "my fresh ready vnode replaces `dead` as the
    /// occupant of your child slot".
    ReplaceRep {
        /// The dead representative.
        dead: NodeId,
        /// The heir taking over.
        new_rep: NodeId,
        /// Which of the receiver's vnodes is the parent end.
        your_end: VRef,
    },
    /// Short-circuit, parent side: child vnode `gone` under your `your_end`
    /// is replaced by `survivor` (`survivor == gone` is the sentinel for
    /// "dissolved with no survivor").
    SpliceChild {
        /// Receiver's vnode.
        your_end: VRef,
        /// Removed child vnode.
        gone: VRef,
        /// Surviving grandchild subtree root, or `== gone` for none.
        survivor: VRef,
    },
    /// Short-circuit, child side: your parent vnode `gone` is replaced by
    /// `new_parent` (`new_parent == your_end` is the sentinel for "you are
    /// now the virtual root").
    SpliceParent {
        /// Receiver's vnode.
        your_end: VRef,
        /// Removed parent vnode.
        gone: VRef,
        /// New parent, or `== your_end` for root.
        new_parent: VRef,
    },
    /// A ready vnode rooting one of your will slots dissolved entirely.
    SlotDissolved {
        /// The representative whose slot vanished.
        rep: NodeId,
    },
    /// Bypass: "re-attach your vnode `your_end` under `new_parent`,
    /// presenting yourself as occupant of slot `slot`".
    Reattach {
        /// Receiver's vnode.
        your_end: VRef,
        /// The shape position to attach under.
        new_parent: VRef,
        /// The slot the receiver occupies there.
        slot: NodeId,
        /// Stale entry (the dead owner's position) to replace at landing.
        replacing: Option<VRef>,
    },
    /// Edge-interest release (half of the two-sided drop handshake).
    Release,
}

/// Outcome of a helper losing one child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LostChild {
    /// Still has two children — nothing happened.
    Kept,
    /// The ready vnode lost its only child and dissolved.
    Dissolved,
    /// The deployed helper short-circuited.
    ShortCircuited {
        /// The surviving child subtree root.
        survivor: VRef,
        /// The helper's old parent (`None` = it was the virtual root).
        new_parent: Option<VRef>,
    },
}

/// What only a will owner keeps: boxed, so that leaves (most nodes) do not
/// carry it.
#[derive(Debug)]
struct Owner {
    /// My will over my slot representatives (`SubRT(v)`); never empty.
    will: SubRtShape,
    /// Portions I last sent, ascending by representative, for diffing.
    sent_portions: Vec<(NodeId, DPortion)>,
    /// Representatives whose portion may differ from `sent_portions`: what
    /// the will edits since the last refresh changed, plus the
    /// representatives they removed. Empty exactly when the will is as of
    /// the last refresh; the buffer is kept between refreshes.
    stale: ShapeDelta,
    /// The `(pos_parent, role)` that `sent_portions` was computed from.
    portions_from: (Option<VRef>, Option<DRole>),
    /// The will's heir and SubRT-root holder at the last refresh.
    anchors: (Option<NodeId>, Option<NodeId>),
}

/// One processor of the distributed Forgiving Tree.
#[derive(Debug)]
pub struct FtNode {
    id: NodeId,
    /// Parent of my position vnode (`parent(v)` of Table 1).
    pos_parent: Option<VRef>,
    /// My will and its bookkeeping; `None` once I am a leaf.
    owner: Option<Box<Owner>>,
    /// LeafWills filed with me by nodes whose virtual parent I simulate,
    /// ascending by filer.
    leaf_wills: Vec<(NodeId, Option<DRole>)>,
    /// The portion of my owner's will addressed to me (kept in the box it
    /// arrived in).
    portion: Option<Box<DPortion>>,
    /// My helper-role fields.
    role: Option<DRole>,
    /// LeafWill I last sent, and to whom.
    sent_leafwill: Option<(NodeId, Option<DRole>)>,
    /// Edge interests currently held, ascending; inline unless I hold a
    /// will with more representatives.
    desired: InlineVec<NodeId, FIELD_NEIGHBORS>,
}

/// The most neighbors a processor's fields name besides its will's
/// representatives: its parent, its helper's parent and its helper's two
/// children.
const FIELD_NEIGHBORS: usize = 4;

impl FtNode {
    fn new(id: NodeId) -> Self {
        FtNode {
            id,
            pos_parent: None,
            owner: None,
            leaf_wills: Vec::new(),
            portion: None,
            role: None,
            sent_leafwill: None,
            desired: InlineVec::new(),
        }
    }

    /// Whether this node currently simulates a ready-state heir.
    pub fn is_ready_heir(&self) -> bool {
        self.role.as_ref().is_some_and(|r| r.ready)
    }

    /// Whether this node currently holds helper duties.
    pub fn is_helper(&self) -> bool {
        self.role.is_some()
    }

    /// The paper's `parent(v)` field.
    pub fn parent_sim(&self) -> Option<NodeId> {
        let p = self.pos_parent?;
        if p.sim == self.id {
            // my parent vnode is my own helper: skip to its parent
            self.role.as_ref()?.hparent.map(|h| h.sim)
        } else {
            Some(p.sim)
        }
    }

    /// My parent, helper parent and helper children: the neighbors my
    /// fields demand besides my will's representatives. Ascending, without
    /// duplicates and without myself.
    fn extra_neighbors(&self) -> InlineVec<NodeId, FIELD_NEIGHBORS> {
        let mut extra: InlineVec<NodeId, FIELD_NEIGHBORS> =
            self.pos_parent.map(|p| p.sim).into_iter().collect();
        if let Some(r) = &self.role {
            if let Some(hp) = r.hparent {
                extra.push(hp.sim);
            }
            for c in r.hchildren.iter() {
                extra.push(c.sim);
            }
        }
        extra.sort_unstable();
        let mut last = None;
        extra.retain(|&u| {
            let keep = last != Some(u) && u != self.id;
            last = Some(u);
            keep
        });
        extra
    }

    /// Feeds the neighbor set my fields demand to `f`, ascending: my will's
    /// representatives (already ascending) merged with `extra`.
    fn each_wanted(&self, extra: &[NodeId], mut f: impl FnMut(NodeId)) {
        let mut e = 0;
        if let Some(o) = self.owner.as_deref() {
            for r in o.will.reps().filter(|&r| r != self.id) {
                while e < extra.len() && extra[e] <= r {
                    if extra[e] != r {
                        f(extra[e]);
                    }
                    e += 1;
                }
                f(r);
            }
        }
        extra[e..].iter().for_each(|&u| f(u));
    }

    /// Adds the edges I newly want and releases the ones I no longer want,
    /// each in ascending order: one merge walk of the wanted set, streamed
    /// rather than built, against the interests I hold. The wanted set is
    /// stored only when it differs.
    fn sync_edges(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        let extra = self.extra_neighbors();
        let held = &self.desired;
        let (mut j, mut len, mut same) = (0, 0, true);
        self.each_wanted(&extra, |u| {
            while j < held.len() && held[j] < u {
                ctx.send(held[j], FtMsg::Release);
                j += 1;
                same = false;
            }
            if held.get(j) == Some(&u) {
                j += 1;
            } else {
                ctx.add_edge(u);
                same = false;
            }
            len += 1;
        });
        for &v in &held[j..] {
            ctx.send(v, FtMsg::Release);
            same = false;
        }
        if !same {
            self.desired = self.wanted(&extra, len);
        }
    }

    /// The `len` neighbors [`FtNode::each_wanted`] feeds, as a list: inline
    /// when they fit, else in one exact heap block.
    fn wanted(&self, extra: &[NodeId], len: usize) -> InlineVec<NodeId, FIELD_NEIGHBORS> {
        let spill = len > FIELD_NEIGHBORS;
        let mut all = Vec::with_capacity(if spill { len } else { 0 });
        let mut few = FixedVec::new();
        self.each_wanted(extra, |u| {
            if spill {
                all.push(u);
            } else {
                few.push(u);
            }
        });
        if spill {
            InlineVec::from_vec(all)
        } else {
            InlineVec::from(few)
        }
    }

    /// Computes every portion my current will + fields imply.
    fn compute_portions(&self) -> Vec<(NodeId, DPortion)> {
        let Some(Owner { will, .. }) = self.owner.as_deref() else {
            return Vec::new();
        };
        let top = self.top(will);
        will.reps()
            .map(|rep| (rep, self.lower_portion(&will.portion(rep), top, will)))
            .collect()
    }

    /// Where the SubRT root of `will` attaches when I die.
    fn top(&self, will: &SubRtShape) -> VRef {
        let heir = will.heir().expect("nonempty will");
        match &self.role {
            Some(_) => {
                let t = self.pos_parent.unwrap_or(VRef::helper(heir));
                if t.sim == self.id {
                    // my position hangs under my own helper; after my death
                    // that helper is simulated by my heir, so the SubRT root
                    // must address the heir.
                    VRef::helper(heir)
                } else {
                    t
                }
            }
            None => VRef::helper(heir),
        }
    }

    fn lower_portion(&self, p: &Portion, top: VRef, will: &SubRtShape) -> DPortion {
        let to_vref = |r: &PortionRef| match r {
            PortionRef::Helper(s) => VRef::helper(*s),
            // a slot's occupant is simulated by its representative (INV-C)
            PortionRef::Slot(r) => VRef::pos(*r),
        };
        // true virtual parent of this rep's leaf slot (no self-loop skip):
        // the distributed model tracks real virtual links and drops
        // self-loops only at the edge level.
        let next_parent = will.leaf_parent_of(p.rep).as_ref().map(to_vref);
        let helper = p.next_hchildren.map(|(l, r)| {
            let hp = p
                .next_hparent
                .expect("helper has an hparent entry")
                .as_ref()
                .map(to_vref);
            (hp, [l, r])
        });
        let heir_mode = p.is_heir.then(|| match &self.role {
            None => HeirMode::Ready {
                subrt_root: will.root_sim().map(VRef::helper),
            },
            Some(role) => HeirMode::TakeOver { role: role.clone() },
        });
        // `top` is consumed only by the SubRT-root helper holder and by the
        // single-slot heir; `owner_parent` only by the heir. Normalize the
        // fields everywhere else so an heir change does not perturb every
        // portion — otherwise the owner would re-send Θ(Δ) portions and
        // break Theorem 1.3's O(1) messages per event.
        let reads_top = matches!(&helper, Some((None, _))) || next_parent.is_none();
        DPortion {
            owner: self.id,
            is_heir: p.is_heir,
            next_parent,
            helper,
            heir_mode,
            top: if reads_top { top } else { VRef::pos(self.id) },
            owner_parent: if p.is_heir { self.pos_parent } else { None },
        }
    }

    /// Sends portions that changed since last time (O(1) per event).
    ///
    /// Only the portions an input change can reach are recomputed: those the
    /// will edits since the last refresh named, and those of the heir and
    /// the SubRT-root holder when `role`, `pos_parent`, the heir or the root
    /// holder changed (the heir's portion names the root, and the root
    /// holder's names where it attaches, which depends on the other three).
    /// Nothing is recomputed when no input changed.
    fn refresh_portions(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        let Some(owner) = self.owner.as_deref() else {
            return;
        };
        let (p, r) = &owner.portions_from;
        let fields_same = *p == self.pos_parent && *r == self.role;
        if fields_same && owner.stale.changed.is_empty() {
            debug_assert!(
                self.compute_portions() == owner.sent_portions,
                "{:?}: skipped a portion refresh whose inputs changed",
                self.id
            );
            return;
        }
        // the full recompute, diffed against what was sent, is the oracle
        #[cfg(debug_assertions)]
        let (full, full_sends) = {
            let full = self.compute_portions();
            let sends: Vec<NodeId> = full
                .iter()
                .filter(|(rep, p)| {
                    let sent = owner.sent_portions.binary_search_by_key(rep, |(r, _)| *r);
                    sent.map(|i| &owner.sent_portions[i].1) != Ok(p)
                })
                .map(|(rep, _)| *rep)
                .collect();
            (full, sends)
        };
        #[cfg(debug_assertions)]
        let mut sends = Vec::new();

        let mut owner = self.owner.take().expect("checked above");
        let top = self.top(&owner.will);
        let now = (owner.will.heir(), owner.will.root_sim());
        if !fields_same || now != owner.anchors {
            for rep in [now.0, now.1].into_iter().flatten() {
                owner.stale.insert(rep);
            }
            owner.anchors = now;
        }
        for &rep in &owner.stale.changed {
            let at = owner.sent_portions.binary_search_by_key(&rep, |(r, _)| *r);
            if !owner.will.contains(rep) {
                if let Ok(i) = at {
                    owner.sent_portions.remove(i);
                }
                continue;
            }
            let fresh = self.lower_portion(&owner.will.portion(rep), top, &owner.will);
            if at.map(|i| &owner.sent_portions[i].1) == Ok(&fresh) {
                continue;
            }
            ctx.send(rep, FtMsg::Portion(Box::new(fresh.clone())));
            #[cfg(debug_assertions)]
            sends.push(rep);
            match at {
                Ok(i) => owner.sent_portions[i].1 = fresh,
                Err(i) => owner.sent_portions.insert(i, (rep, fresh)),
            }
        }
        owner.stale.clear();
        if !fields_same {
            owner.portions_from = (self.pos_parent, self.role.clone());
        }
        self.owner = Some(owner);

        #[cfg(debug_assertions)]
        {
            let owner = self.owner.as_deref().expect("restored above");
            assert!(
                sends == full_sends && owner.sent_portions == full,
                "{:?}: the delta refresh sent {sends:?}, the full recompute {full_sends:?}",
                self.id
            );
        }
    }

    /// Whether `rep` represents a slot of my will.
    fn has_slot(&self, rep: NodeId) -> bool {
        self.owner.as_ref().is_some_and(|o| o.will.contains(rep))
    }

    /// Removes `rep`'s slot (and any LeafWill it filed) from my will; I
    /// become a leaf when it was the last one.
    fn prune_slot(&mut self, rep: NodeId) {
        let owner = self
            .owner
            .as_deref_mut()
            .expect("pruning a slot of no will");
        owner.will.remove_slot_into(rep, &mut owner.stale);
        owner.stale.insert(rep);
        if owner.will.is_empty() {
            self.owner = None;
        }
        self.take_leaf_will(rep);
    }

    /// Hands `dead`'s slot to `new_rep`, if `dead` still represents one.
    fn replace_slot_rep(&mut self, dead: NodeId, new_rep: NodeId) {
        if let Some(owner) = self.owner.as_deref_mut().filter(|o| o.will.contains(dead)) {
            owner.will.replace_rep_into(dead, new_rep, &mut owner.stale);
            owner.stale.insert(dead);
            self.take_leaf_will(dead);
        }
    }

    /// Removes and returns the LeafWill `filer` filed with me, if any.
    fn take_leaf_will(&mut self, filer: NodeId) -> Option<Option<DRole>> {
        let i = self
            .leaf_wills
            .binary_search_by_key(&filer, |(f, _)| *f)
            .ok()?;
        Some(self.leaf_wills.remove(i).1)
    }

    /// Files `lw` as `filer`'s LeafWill, replacing an earlier one.
    fn file_leaf_will(&mut self, filer: NodeId, lw: Option<DRole>) {
        match self.leaf_wills.binary_search_by_key(&filer, |(f, _)| *f) {
            Ok(i) => self.leaf_wills[i].1 = lw,
            Err(i) => self.leaf_wills.insert(i, (filer, lw)),
        }
    }

    /// Refreshes the LeafWill my parent holds, when I am a leaf.
    fn refresh_leafwill(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        if self.owner.is_some() {
            return; // not a leaf
        }
        let Some(target) = self.parent_sim() else {
            return;
        };
        if self
            .sent_leafwill
            .as_ref()
            .is_some_and(|(t, lw)| *t == target && *lw == self.role)
        {
            return;
        }
        ctx.send(target, FtMsg::LeafWill(self.role.clone()));
        self.sent_leafwill = Some((target, self.role.clone()));
    }

    /// Post-event bookkeeping: edges, portions, LeafWill.
    fn settle(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        self.sync_edges(ctx);
        self.refresh_portions(ctx);
        self.refresh_leafwill(ctx);
    }

    /// Whether [`FtNode::settle`] would do nothing: my edge interests, sent
    /// portions and filed LeafWill all match my fields. Setup and every
    /// `settle` leave me settled, so a callback that changes none of
    /// `pos_parent`, `role` or the will may skip `settle`; debug builds
    /// check that this holds.
    fn is_settled(&self) -> bool {
        let extra = self.extra_neighbors();
        let (mut j, mut edges) = (0, true);
        self.each_wanted(&extra, |u| {
            edges &= self.desired.get(j) == Some(&u);
            j += 1;
        });
        edges &= j == self.desired.len();
        let portions = self.owner.as_deref().is_none_or(|o| {
            o.stale.changed.is_empty()
                && o.portions_from == (self.pos_parent, self.role.clone())
                && self.compute_portions() == o.sent_portions
        });
        let leafwill = self.owner.is_some()
            || self
                .parent_sim()
                .is_none_or(|t| self.sent_leafwill == Some((t, self.role.clone())));
        edges && portions && leafwill
    }

    // ------------------------------------------------------------------
    // portion execution (makeRT + MakeHelper, Algorithms 3.8/3.9)
    // ------------------------------------------------------------------

    fn execute_portion(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        let mut portion = self.portion.take().expect("portion present");
        let owner = portion.owner;
        let dest = portion.next_parent.unwrap_or(portion.top);

        // 1. Determine my slot's occupant (bypassing my ready vnode if I am
        //    a promoted representative) and plan its re-attachment. When the
        //    occupant is my own position and the destination one of my own
        //    vnodes, the occupancy is applied locally *after* my new role is
        //    installed (step 4).
        let my_slot_occupant: VRef;
        let mut local_attach = false;
        match &self.role {
            Some(r) if r.ready && r.hparent == Some(VRef::pos(owner)) => {
                let child = r.hchildren[0];
                my_slot_occupant = child;
                self.role = None;
                if child.sim == self.id {
                    // the subtree is my own position: re-attach directly
                    self.pos_parent = Some(dest);
                    local_attach = dest.sim == self.id;
                } else {
                    ctx.send(
                        child.sim,
                        FtMsg::Reattach {
                            your_end: child,
                            new_parent: dest,
                            slot: self.id,
                            replacing: Some(VRef::pos(owner)),
                        },
                    );
                }
            }
            Some(_) => {
                unreachable!("rep of a live owner must be free or ready (INV-C)")
            }
            None => {
                my_slot_occupant = VRef::pos(self.id);
                self.pos_parent = Some(dest);
                local_attach = dest.sim == self.id;
            }
        }
        if !local_attach && my_slot_occupant.sim == self.id && dest.sim != self.id {
            ctx.send(
                dest.sim,
                FtMsg::OccupySlot {
                    slot: self.id,
                    child: my_slot_occupant,
                    your_end: dest,
                    replacing: Some(VRef::pos(owner)),
                },
            );
        }

        // 2. Take on my assigned SubRT helper (non-heirs).
        if let Some((hp, kids)) = &portion.helper {
            let is_subrt_root = hp.is_none();
            let hparent = hp.unwrap_or(portion.top);
            let mut hchildren = InlineVec::new();
            let mut pending = FixedVec::new();
            for k in kids {
                match k {
                    PortionRef::Helper(s) => hchildren.push(VRef::helper(*s)),
                    PortionRef::Slot(r) if *r == self.id => {
                        // my own slot: I know the occupant locally
                        hchildren.push(my_slot_occupant);
                    }
                    PortionRef::Slot(r) => pending.push(*r),
                }
            }
            assert!(self.role.is_none(), "representative already busy");
            self.role = Some(DRole {
                hparent: Some(hparent),
                hchildren,
                pending_slots: pending,
                ready: false,
            });
            if hparent.sim != self.id {
                ctx.send(
                    hparent.sim,
                    FtMsg::OccupySlot {
                        slot: self.id,
                        child: VRef::helper(self.id),
                        your_end: hparent,
                        // the SubRT root takes the dead owner's old place
                        // under the owner's parent vnode
                        replacing: is_subrt_root.then_some(VRef::pos(owner)),
                    },
                );
            }
        }

        // 3. Heir duties (Algorithm 3.6's two modes).
        if let Some(mode) = portion.heir_mode.take() {
            assert!(portion.is_heir, "heir mode on a non-heir portion");
            match mode {
                HeirMode::Ready { subrt_root } => {
                    assert!(self.role.is_none(), "heir already busy");
                    self.role = Some(DRole {
                        hparent: portion.owner_parent,
                        hchildren: [subrt_root.unwrap_or(my_slot_occupant)]
                            .into_iter()
                            .collect(),
                        pending_slots: FixedVec::new(),
                        ready: true,
                    });
                    if let Some(op) = portion.owner_parent {
                        ctx.send(
                            op.sim,
                            FtMsg::ReplaceRep {
                                dead: owner,
                                new_rep: self.id,
                                your_end: op,
                            },
                        );
                    }
                }
                HeirMode::TakeOver { role } => {
                    assert!(self.role.is_none(), "heir already busy");
                    let mut new_role = role;
                    new_role.pending_slots.clear();
                    let ready = new_role.ready;
                    for &c in new_role.hchildren.iter() {
                        if c.sim == self.id {
                            // the owner's helper parented my own position
                            self.pos_parent = Some(VRef::helper(self.id));
                        } else {
                            ctx.send(
                                c.sim,
                                FtMsg::NewSim {
                                    old: VRef::helper(owner),
                                    new: VRef::helper(self.id),
                                    receiver_is_parent: false,
                                    your_end: c,
                                    ready_rep_replace: None,
                                },
                            );
                        }
                    }
                    if let Some(hp) = new_role.hparent {
                        ctx.send(
                            hp.sim,
                            FtMsg::NewSim {
                                old: VRef::helper(owner),
                                new: VRef::helper(self.id),
                                receiver_is_parent: true,
                                your_end: hp,
                                ready_rep_replace: ready.then_some(owner),
                            },
                        );
                    }
                    self.role = Some(new_role);
                }
            }
        }

        // 4. Apply a deferred local occupancy (my own position under my own
        //    freshly installed helper).
        if local_attach {
            self.apply_occupy(self.id, my_slot_occupant, Some(VRef::pos(owner)), ctx);
        }
        self.settle(ctx);
    }

    /// Records `child` as the occupant of `slot` under my helper, replacing
    /// a stale entry when one is named (shared by the OccupySlot handler and
    /// local self-attachment).
    fn apply_occupy(
        &mut self,
        slot: NodeId,
        child: VRef,
        replacing: Option<VRef>,
        ctx: &Ctx<'_, FtMsg>,
    ) {
        let Some(role) = self.role.as_mut() else {
            assert!(ctx.faulty(), "{:?}: occupancy without a role", self.id);
            return;
        };
        if let Some(i) = role.pending_slots.iter().position(|s| *s == slot) {
            role.pending_slots.remove(i);
            role.hchildren.push(child);
        } else if let Some(e) = replacing.and_then(|r| role.hchildren.iter_mut().find(|c| **c == r))
        {
            *e = child;
        } else if !role.hchildren.contains(&child) {
            role.hchildren.push(child);
        }
    }

    // ------------------------------------------------------------------
    // helper degree discipline (bypass / short-circuit, §3)
    // ------------------------------------------------------------------

    /// My helper lost child `gone`; splice or dissolve as required.
    /// `suppress` names a survivor the caller will rewire locally (its
    /// simulator is dead), so no message should be sent to it.
    ///
    /// Under faults, duplicated, lost or late mail can leave my helper with
    /// a child count the protocol never produces. I then stay as I am and
    /// the broken structure shows in the run's connectivity verdict.
    fn helper_lost_child(
        &mut self,
        gone: VRef,
        suppress: Option<VRef>,
        ctx: &mut Ctx<'_, FtMsg>,
    ) -> LostChild {
        let role = self.role.as_mut().expect("helper_lost_child without role");
        let before = role.child_count();
        role.hchildren.retain(|c| *c != gone);
        if !ctx.faulty() {
            assert_eq!(
                role.child_count() + 1,
                before,
                "{:?}: lost child {gone:?} was not mine",
                self.id
            );
        }
        if role.ready {
            if role.child_count() > 0 {
                assert!(ctx.faulty(), "ready vnodes have one child");
                return LostChild::Kept;
            }
            self.helper_dissolved(ctx);
            return LostChild::Dissolved;
        }
        if role.child_count() > 1 {
            return LostChild::Kept;
        }
        // redundant degree-2 helper: short-circuit myself
        let (true, &[survivor]) = (role.pending_slots.is_empty(), &role.hchildren[..]) else {
            assert!(ctx.faulty(), "short-circuit during instantiation");
            return LostChild::Kept;
        };
        let hp = role.hparent;
        self.role = None;
        if let Some(hp) = hp {
            ctx.send(
                hp.sim,
                FtMsg::SpliceChild {
                    your_end: hp,
                    gone: VRef::helper(self.id),
                    survivor,
                },
            );
        }
        if Some(survivor) != suppress && survivor.sim != self.id {
            ctx.send(
                survivor.sim,
                FtMsg::SpliceParent {
                    your_end: survivor,
                    gone: VRef::helper(self.id),
                    new_parent: hp.unwrap_or(survivor),
                },
            );
        } else if survivor.sim == self.id {
            // the survivor is one of my own vnodes
            self.apply_splice_parent(survivor, VRef::helper(self.id), hp);
        }
        LostChild::ShortCircuited {
            survivor,
            new_parent: hp,
        }
    }

    fn apply_splice_parent(&mut self, your_end: VRef, gone: VRef, new_parent: Option<VRef>) {
        if your_end.helper {
            if let Some(r) = &mut self.role {
                if r.hparent == Some(gone) {
                    r.hparent = new_parent;
                }
            }
        } else if self.pos_parent == Some(gone) {
            self.pos_parent = new_parent;
        }
    }

    /// Adopts a dead leaf's helper duties (LeafWill execution, Alg 3.7).
    /// Under faults, lost or late mail can leave me busy here; the duties
    /// are then dropped and the broken structure shows in the run's
    /// connectivity verdict.
    fn adopt_leafwill(&mut self, dead: NodeId, lw: DRole, ctx: &mut Ctx<'_, FtMsg>) {
        if self.role.is_some() {
            assert!(
                ctx.faulty(),
                "{:?}: adopter must be free after the splice",
                self.id
            );
            return;
        }
        let ready = lw.ready;
        for &c in lw.hchildren.iter() {
            if c.sim == self.id {
                self.pos_parent = Some(VRef::helper(self.id));
            } else {
                ctx.send(
                    c.sim,
                    FtMsg::NewSim {
                        old: VRef::helper(dead),
                        new: VRef::helper(self.id),
                        receiver_is_parent: false,
                        your_end: c,
                        ready_rep_replace: None,
                    },
                );
            }
        }
        if let Some(hp) = lw.hparent {
            if hp.sim != self.id {
                ctx.send(
                    hp.sim,
                    FtMsg::NewSim {
                        old: VRef::helper(dead),
                        new: VRef::helper(self.id),
                        receiver_is_parent: true,
                        your_end: hp,
                        ready_rep_replace: ready.then_some(dead),
                    },
                );
            }
        }
        self.role = Some(lw);
    }
}

impl Process for FtNode {
    type Msg = FtMsg;

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, FtMsg>) {
        // Relation: dead owned my portion — execute it (this also covers
        // "dead was my parent / my ready vnode's parent").
        if self.portion.as_ref().is_some_and(|p| p.owner == dead) {
            self.execute_portion(ctx);
            return;
        }
        let lw_entry = self.take_leaf_will(dead);
        // Relation: dead was one of my will representatives.
        if self.has_slot(dead) {
            match &lw_entry {
                Some(None) => {
                    // plain leaf child: prune the slot
                    self.prune_slot(dead);
                }
                Some(Some(r))
                    if r.hparent == Some(VRef::pos(self.id))
                        && r.hchildren.iter().all(|c| c.sim == dead) =>
                {
                    // promoted rep whose ready vnode carried only its own
                    // position: the whole slot dissolves
                    self.prune_slot(dead);
                }
                Some(Some(_)) => assert!(
                    ctx.faulty(),
                    "a leaf directly under its live original parent cannot hold a role"
                ),
                None => {
                    // internal rep or promoted leaf rep: the heir/adopter
                    // will send ReplaceRep / NewSim shortly.
                }
            }
            self.settle(ctx);
            return;
        }
        // Relation: dead's position hung under my helper — I simulate its
        // virtual parent: splice/dissolve, then adopt its LeafWill. This
        // fires only when I hold dead's LeafWill (leaves always file one);
        // otherwise dead was internal and its SubRT root will replace the
        // position via OccupySlot.
        let pos_child = self
            .role
            .as_ref()
            .is_some_and(|r| r.hchildren.contains(&VRef::pos(dead)));
        if pos_child && lw_entry.is_some() {
            let lw = lw_entry.flatten();
            let outcome = self.helper_lost_child(
                VRef::pos(dead),
                lw.as_ref().map(|_| VRef::helper(dead)),
                ctx,
            );
            if let Some(mut lw) = lw {
                // The adopted fields may reference my own helper, which the
                // splice above just dissolved: rewire those references to
                // the splice's outcome (the spec engine gets this for free
                // from shared vnode surgery).
                if self.role.is_none() {
                    if let LostChild::ShortCircuited {
                        survivor,
                        new_parent,
                    } = outcome
                    {
                        if lw.hparent == Some(VRef::helper(self.id)) {
                            lw.hparent = new_parent;
                        }
                        for e in lw.hchildren.iter_mut() {
                            if *e == VRef::helper(self.id) {
                                *e = survivor;
                            }
                        }
                    }
                }
                self.adopt_leafwill(dead, lw, ctx);
            }
            self.settle(ctx);
            return;
        }
        // Relation: dead's helper hung under my helper *and* dissolves with
        // dead (its own position was among its children): splice it here.
        let helper_child = self
            .role
            .as_ref()
            .is_some_and(|r| r.hchildren.contains(&VRef::helper(dead)));
        if helper_child {
            if let Some(Some(r)) = &lw_entry {
                if r.hparent == Some(VRef::helper(self.id)) {
                    let survivors: InlineVec<VRef, 2> = r
                        .hchildren
                        .iter()
                        .copied()
                        .filter(|c| c.sim != dead)
                        .collect();
                    match &survivors[..] {
                        [] => {
                            // dead's (ready) helper carried only dead itself
                            self.helper_lost_child(VRef::helper(dead), None, ctx);
                        }
                        [c] => {
                            let role = self.role.as_mut().expect("checked");
                            let e = role
                                .hchildren
                                .iter_mut()
                                .find(|x| **x == VRef::helper(dead))
                                .expect("checked");
                            *e = *c;
                            ctx.send(
                                c.sim,
                                FtMsg::SpliceParent {
                                    your_end: *c,
                                    gone: VRef::helper(dead),
                                    new_parent: VRef::helper(self.id),
                                },
                            );
                        }
                        // more survivors: only lost or late mail gets here
                        _ => assert!(ctx.faulty(), "helpers are binary"),
                    }
                    self.settle(ctx);
                    return;
                }
            }
            // otherwise the helper vnode survives under a new simulator:
            // its heir/adopter sends NewSim. Wait.
        }
        // Remaining relations (dead simulated my parent vnode or a
        // (grand)child helper that survives): the orchestrators reach me
        // within a round. Nothing settle reads has changed.
        debug_assert!(self.is_settled(), "{:?}: unsettled after a notice", self.id);
    }

    fn on_message(&mut self, from: NodeId, msg: FtMsg, ctx: &mut Ctx<'_, FtMsg>) {
        // Whether the message may have changed a field `settle` reads. A
        // received portion or LeafWill is read only when its sender dies.
        let touched = match msg {
            FtMsg::Portion(p) => {
                self.portion = Some(p);
                false
            }
            FtMsg::LeafWill(lw) => {
                self.file_leaf_will(from, lw);
                false
            }
            FtMsg::OccupySlot {
                slot,
                child,
                your_end,
                replacing,
            } => {
                if your_end.helper {
                    self.apply_occupy(slot, child, replacing, ctx);
                }
                // else: the occupant of one of my will slots announcing
                // itself; my slots are tracked by representative already,
                // so there is nothing structural to record (edge interest
                // suffices).
                your_end.helper
            }
            FtMsg::NewSim {
                old,
                new,
                receiver_is_parent,
                your_end,
                ready_rep_replace,
            } => {
                if receiver_is_parent {
                    if your_end.helper {
                        if let Some(role) = &mut self.role {
                            if let Some(e) = role.hchildren.iter_mut().find(|c| **c == old) {
                                *e = new;
                            }
                        }
                    } else if let Some(dead) = ready_rep_replace {
                        self.replace_slot_rep(dead, new.sim);
                    }
                } else {
                    if self.pos_parent == Some(old) {
                        self.pos_parent = Some(new);
                    }
                    if let Some(r) = &mut self.role {
                        if r.hparent == Some(old) {
                            r.hparent = Some(new);
                        }
                        if let Some(e) = r.hchildren.iter_mut().find(|c| **c == old) {
                            *e = new;
                        }
                    }
                }
                true
            }
            FtMsg::ReplaceRep {
                dead,
                new_rep,
                your_end,
            } => {
                if your_end.helper {
                    if let Some(role) = &mut self.role {
                        if let Some(e) = role.hchildren.iter_mut().find(|c| c.sim == dead) {
                            *e = VRef::helper(new_rep);
                        }
                    }
                } else {
                    self.replace_slot_rep(dead, new_rep);
                }
                true
            }
            FtMsg::SpliceChild {
                your_end,
                gone,
                survivor,
            } => {
                assert!(your_end.helper, "splice-child against a position end");
                if let Some(role) = &mut self.role {
                    if let Some(i) = role.hchildren.iter().position(|c| *c == gone) {
                        if survivor == gone {
                            role.hchildren.remove(i);
                            // re-check my own degree after an outright loss
                            if role.ready {
                                if role.child_count() == 0 {
                                    self.helper_dissolved(ctx);
                                }
                            } else if role.child_count() == 1 {
                                let g = role.hchildren[0];
                                self.helper_lost_child_noop_shortcircuit(g, ctx);
                            }
                        } else {
                            role.hchildren[i] = survivor;
                        }
                    }
                }
                true
            }
            FtMsg::SpliceParent {
                your_end,
                gone,
                new_parent,
            } => {
                let new_p = (new_parent != your_end).then_some(new_parent);
                self.apply_splice_parent(your_end, gone, new_p);
                true
            }
            FtMsg::SlotDissolved { rep } => {
                if self.has_slot(rep) {
                    self.prune_slot(rep);
                }
                true
            }
            FtMsg::Reattach {
                your_end,
                new_parent,
                slot,
                replacing,
            } => {
                if your_end.helper {
                    if let Some(role) = &mut self.role {
                        role.hparent = Some(new_parent);
                    }
                } else {
                    self.pos_parent = Some(new_parent);
                }
                if new_parent.sim != self.id {
                    ctx.send(
                        new_parent.sim,
                        FtMsg::OccupySlot {
                            slot,
                            child: your_end,
                            your_end: new_parent,
                            replacing,
                        },
                    );
                }
                true
            }
            FtMsg::Release => {
                // `desired` mirrors my fields after every callback
                if self.desired.binary_search(&from).is_err() {
                    ctx.drop_edge(from);
                }
                false
            }
        };
        if touched {
            self.settle(ctx);
        } else {
            debug_assert!(
                self.is_settled(),
                "{:?}: unsettled after a message",
                self.id
            );
        }
    }
}

impl FtNode {
    /// My ready vnode lost its only child through a cascade.
    fn helper_dissolved(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        let hp = self.role.as_ref().expect("checked").hparent;
        self.role = None;
        match hp {
            Some(hp) if hp.helper => ctx.send(
                hp.sim,
                FtMsg::SpliceChild {
                    your_end: hp,
                    gone: VRef::helper(self.id),
                    survivor: VRef::helper(self.id),
                },
            ),
            Some(hp) => ctx.send(hp.sim, FtMsg::SlotDissolved { rep: self.id }),
            None => {}
        }
    }

    /// My deployed helper dropped to one child through a cascade:
    /// short-circuit (the survivor is alive — message it normally).
    fn helper_lost_child_noop_shortcircuit(&mut self, survivor: VRef, ctx: &mut Ctx<'_, FtMsg>) {
        let hp = self.role.as_ref().expect("checked").hparent;
        self.role = None;
        if let Some(hp) = hp {
            ctx.send(
                hp.sim,
                FtMsg::SpliceChild {
                    your_end: hp,
                    gone: VRef::helper(self.id),
                    survivor,
                },
            );
        }
        if survivor.sim == self.id {
            self.apply_splice_parent(survivor, VRef::helper(self.id), hp);
        } else {
            ctx.send(
                survivor.sim,
                FtMsg::SpliceParent {
                    your_end: survivor,
                    gone: VRef::helper(self.id),
                    new_parent: hp.unwrap_or(survivor),
                },
            );
        }
    }
}

/// Driver owning the simulated network; mirrors [`crate::ForgivingTree`]'s
/// public API so experiments can swap engines.
#[derive(Debug)]
pub struct DistributedForgivingTree {
    net: Network<FtNode>,
}

impl DistributedForgivingTree {
    /// Initializes processors with their Table 1 fields and pre-distributed
    /// wills (the setup phase itself is exercised and measured separately:
    /// `ft_sim::bfs` + experiment E9).
    pub fn new(tree: &RootedTree) -> Self {
        let mut net = Network::new(tree.to_graph(), FtNode::new);
        for v in tree.nodes() {
            let node = net.process_mut(v);
            node.pos_parent = tree.parent(v).map(VRef::pos);
            let children = tree.children(v);
            if children.is_empty() {
                node.sent_leafwill = tree.parent(v).map(|p| (p, None));
            } else {
                let will = SubRtShape::build(children);
                node.owner = Some(Box::new(Owner {
                    anchors: (will.heir(), will.root_sim()),
                    will,
                    sent_portions: Vec::new(),
                    stale: ShapeDelta::default(),
                    portions_from: (node.pos_parent, None),
                }));
                // children are ascending, so the filed wills are too
                node.leaf_wills = children
                    .iter()
                    .filter(|&&c| tree.is_leaf(c))
                    .map(|&c| (c, None))
                    .collect();
            }
            let extra = node.extra_neighbors();
            let mut len = 0;
            node.each_wanted(&extra, |_| len += 1);
            node.desired = node.wanted(&extra, len);
            let portions = node.compute_portions();
            for (rep, p) in &portions {
                net.process_mut(*rep).portion = Some(Box::new(p.clone()));
            }
            if let Some(owner) = &mut net.process_mut(v).owner {
                owner.sent_portions = portions;
            }
        }
        DistributedForgivingTree { net }
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// True when all nodes are deleted.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Read access to a processor (tests/introspection).
    pub fn node(&self, v: NodeId) -> &FtNode {
        self.net.process(v)
    }

    /// Live node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.net.nodes()
    }

    /// The message ledger of the underlying simulator — the single source
    /// of truth for Theorem 1.3's message accounting.
    pub fn ledger(&self) -> &ft_sim::MsgLedger {
        self.net.ledger()
    }

    /// Read access to the underlying simulated network.
    pub fn network(&self) -> &Network<FtNode> {
        &self.net
    }

    /// Mutable access to the underlying network, for campaign drivers
    /// (`ft_sim::Campaign`) that batch deletions and interleave heals.
    pub fn network_mut(&mut self) -> &mut Network<FtNode> {
        &mut self.net
    }

    /// Deletes `v` and runs the recovery phase to quiescence.
    ///
    /// # Panics
    /// Panics if `v` is dead or the protocol fails to quiesce within the
    /// O(1) round budget.
    pub fn delete(&mut self, v: NodeId) -> HealReport {
        let ((notice, ((rounds, merged), _)), edges_added) = self.net.edges_gained_by(|net| {
            let notice = net.delete_node(v);
            (notice, net.run_until_quiet(12))
        });
        HealReport {
            deleted: Some(v),
            rounds: rounds + 1,
            notified: notice.messages,
            total_messages: notice.messages + merged.messages,
            max_messages_per_node: notice.max_per_node.max(merged.max_per_node),
            edges_added,
            ..HealReport::default()
        }
    }
}
