// Package pathvector implements the Generalized Path Vector protocol of
// §V-A natively in Go: a path-vector mechanism parameterized by a routing
// algebra. It is the compiled counterpart of the NDlog GPV program — the
// engine package executes the same four rules interpretively; this package
// executes them directly, and the equivalence of the two is tested.
//
// Per-message semantics follow the GPV rules:
//
//	gpvRecv:   on an advertisement from V, apply the import filter
//	           ⊕I over label(U→V); if imported, generate the new signature
//	           with ⊕P and the new path (loop-checked).
//	gpvStore:  keep the candidate route, keyed by (destination, neighbor) —
//	           a neighbor's new advertisement replaces its old one, BGP's
//	           implicit withdraw.
//	gpvSelect: recompute the most preferred candidate with ⪯.
//	gpvSend:   when the selection changes, schedule a (batched)
//	           re-advertisement to every neighbor whose export filter ⊕E
//	           over label(U→N) admits the route; neighbors that previously
//	           received a now-filtered or withdrawn route get a withdraw.
//
// Label orientation: the *receiver* U of an advertisement from V evaluates
// ⊕I and ⊕P over the label of its own link U→V; the *exporter* U sending to
// N evaluates ⊕E over the label of U→N. This is the self-consistent reading
// of the paper's §III-A operators (see DESIGN.md).
//
// State layout: a Node interns its neighbours into slots once, and keeps
// per destination one record per slot — the candidate (gpvStore) and the
// Adj-RIB-Out entry (what gpvSend last sent that neighbour) — so the
// per-message path indexes slices and compares adverts field by field
// instead of hashing string keys. Only node-local state is slot-indexed:
// on the wire, adverts carry signatures as SigKey strings.
package pathvector

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
)

// Advert is a route advertisement: dest D reachable via Path with signature
// Sig. Origination announcements carry Origination=true and no signature —
// the receiver derives the one-hop signature from the algebra's origination
// set (§V-B step 4).
type Advert struct {
	Dest        simnet.NodeID
	Path        []simnet.NodeID
	SigKey      string // rendered signature (wire form)
	Origination bool
}

// Withdraw revokes the sender's advertisement for Dest.
type Withdraw struct {
	Dest simnet.NodeID
}

// WireSize estimates the on-the-wire size of an advert: a fixed header plus
// four bytes per path element, the granularity the bandwidth figures need.
func (a Advert) WireSize() int { return 20 + 4*len(a.Path) }

// WireSize of a withdraw: header only.
func (w Withdraw) WireSize() int { return 24 }

func init() {
	simnet.RegisterPayload(Advert{})
	simnet.RegisterPayload(Withdraw{})
}

// Route is a stored candidate route.
type Route struct {
	Dest simnet.NodeID
	Path []simnet.NodeID
	Sig  algebra.Sig
}

// Config parameterizes a GPV node.
type Config struct {
	// Algebra is the policy configuration.
	Algebra algebra.Algebra
	// Label returns the label of the directed link from→to. It must be
	// defined for every adjacent pair.
	Label func(from, to simnet.NodeID) algebra.Label
	// Originations are the routes this node injects at start (externally
	// learned routes in iBGP instances; self-destination announcements are
	// covered by SelfOriginate instead).
	Originations []Route
	// SelfOriginate, when true, makes the node announce itself as a
	// destination: neighbors derive the one-hop signature from the
	// algebra's origination set. This is the eBGP-style full-mesh workload
	// of §VI-A.
	SelfOriginate bool
	// BatchInterval batches route propagation (the paper configures 1 s in
	// §VI-A). Zero sends immediately.
	BatchInterval time.Duration
	// StartStagger delays protocol start by a node-deterministic offset in
	// [0, StartStagger), desynchronizing batch phases the way real routers
	// are desynchronized. DISAGREE-style gadgets rely on it to escape the
	// synchronous oscillation.
	StartStagger time.Duration
	// MaxPathLen, when positive, rejects adverts whose resulting path
	// exceeds the cap — used by the §VI-B collection runs to bound the
	// permitted-path harvest.
	MaxPathLen int
	// OnAdvert, when set, observes every imported (non-filtered)
	// advertisement — the hook §VI-B uses to extract SPP instances from
	// executions.
	OnAdvert func(node simnet.NodeID, rt Route)
	// SigFromKey recovers a signature from its wire rendering. Required
	// because signatures travel as strings; the default understands the
	// renderings of the built-in algebras via SigCodec.
	SigFromKey func(key string) (algebra.Sig, bool)
}

// Node is a GPV protocol instance attached to one simnet node. Create with
// NewNode; one Node per network node.
//
// Route state is kept in neighbour slots, interned on first contact with
// the platform: slot i < len(slots)-1 is env.Neighbors()[i], and the last
// slot is the node itself, which holds its originations. reselect folds
// the candidates in NodeID order (fold), not slot order: the result of the
// fold depends on its order whenever ⪯ is only a partial order, and NodeID
// order keeps the selection independent of the order links were connected
// in.
type Node struct {
	cfg Config
	// slots are the neighbours in env.Neighbors() order, then self;
	// slotOf inverts it. fold lists slot indices sorted by NodeID.
	slots  []simnet.NodeID
	slotOf map[simnet.NodeID]int
	fold   []int
	// labels[i] is Label(self, slots[i]): the receiver-side label for
	// imports from, and the exporter-side label for exports to, neighbour i.
	// It is resolved on first use, so Label is asked only for directions
	// the protocol uses (an SPP conversion labels declared links only).
	labels []algebra.Label
	// dests holds per-destination state, also listed in creation order.
	dests     map[simnet.NodeID]*destRIB
	destOrder []*destRIB
	// dirty lists destinations whose selection changed since the last
	// flush.
	dirty []*destRIB
	// flushScheduled guards the batch timer.
	flushScheduled bool
	started        bool
	// origsOff withholds Config.Originations (the mid-run policy-change
	// fault; see SetOriginationsEnabled in churn.go).
	origsOff bool
	// changes counts selection changes across all destinations, cumulative
	// across restarts; lastChange is the instant of the most recent one.
	// Campaign drivers use them to spot oscillating nodes under churn.
	changes    int64
	lastChange time.Duration
}

// destRIB is one destination's state: the selection, and three slices
// indexed by slot. cands[i] is the candidate learned from slot i
// (gpvStore), present when has[i]. out[i] is the Adj-RIB-Out entry for
// neighbour slot i, the advert last sent to it; a zero entry (nil Path)
// means none is outstanding — never sent, or withdrawn, which behave alike
// since a withdraw is owed only after an advert. Entries are compared
// field by field (sameAdvert), so de-duplicating sends builds no string.
type destRIB struct {
	dest    simnet.NodeID
	best    Route
	hasBest bool
	dirty   bool
	cands   []Route
	has     []bool
	out     []Advert
}

var _ simnet.Handler = (*Node)(nil)

// NewNode builds a GPV node from the configuration.
func NewNode(cfg Config) *Node {
	if cfg.SigFromKey == nil {
		codec := NewSigCodec(cfg.Algebra)
		cfg.SigFromKey = codec.FromKey
	}
	return &Node{cfg: cfg, dests: map[simnet.NodeID]*destRIB{}}
}

// Best returns the node's current selection for dest.
func (n *Node) Best(dest simnet.NodeID) (Route, bool) {
	if d := n.dests[dest]; d != nil && d.hasBest {
		return d.best, true
	}
	return Route{}, false
}

// Routes returns the number of destinations with a selected route.
func (n *Node) Routes() int {
	count := 0
	for _, d := range n.destOrder {
		if d.hasBest {
			count++
		}
	}
	return count
}

// intern builds the slot tables from the node's adjacency, once. Both Start
// and Receive call it: on the TCP platform a neighbour's advert can arrive
// before this node's Start runs.
func (n *Node) intern(env simnet.Env) {
	if n.slotOf != nil {
		return
	}
	nbs := env.Neighbors()
	n.slots = append(append(make([]simnet.NodeID, 0, len(nbs)+1), nbs...), env.Self())
	n.slotOf = make(map[simnet.NodeID]int, len(n.slots))
	n.fold = make([]int, len(n.slots))
	for i, id := range n.slots {
		n.slotOf[id] = i
		n.fold[i] = i
	}
	slices.SortFunc(n.fold, func(a, b int) int { return cmp.Compare(n.slots[a], n.slots[b]) })
	n.labels = make([]algebra.Label, len(nbs))
}

// selfSlot is the slot holding the node's own originations.
func (n *Node) selfSlot() int { return len(n.slots) - 1 }

// label returns Label(self, slots[i]) for a neighbour slot.
func (n *Node) label(i int) algebra.Label {
	if n.labels[i] == nil {
		n.labels[i] = n.cfg.Label(n.slots[n.selfSlot()], n.slots[i])
	}
	return n.labels[i]
}

// dest returns the destination's state, creating it on first use.
func (n *Node) dest(id simnet.NodeID) *destRIB {
	d := n.dests[id]
	if d == nil {
		k := len(n.slots)
		d = &destRIB{dest: id, cands: make([]Route, k), has: make([]bool, k), out: make([]Advert, k-1)}
		n.dests[id] = d
		n.destOrder = append(n.destOrder, d)
	}
	return d
}

// Start implements simnet.Handler: inject originations and self-origination.
func (n *Node) Start(env simnet.Env) {
	n.intern(env)
	start := func() {
		n.started = true
		if !n.origsOff {
			for _, rt := range n.cfg.Originations {
				// An origination replaces whatever the destination had
				// learned before the node started.
				d := n.dest(rt.Dest)
				clear(d.cands)
				clear(d.has)
				d.cands[n.selfSlot()], d.has[n.selfSlot()] = rt, true
				n.reselect(env, d)
			}
		}
		if n.cfg.SelfOriginate {
			self := env.Self()
			d := n.dest(self)
			d.best, d.hasBest = Route{Dest: self, Path: []simnet.NodeID{self}}, true
			n.markDirty(d)
			n.scheduleFlush(env)
		}
	}
	if n.cfg.StartStagger > 0 {
		d := time.Duration(env.Rand().Int63n(int64(n.cfg.StartStagger)))
		env.Schedule(d, start)
	} else {
		start()
	}
}

// Receive implements simnet.Handler: the gpvRecv rule.
func (n *Node) Receive(env simnet.Env, from simnet.NodeID, payload any) {
	n.intern(env)
	slot, ok := n.slotOf[from]
	if !ok {
		panic(fmt.Sprintf("pathvector: %s received from non-neighbor %s", env.Self(), from))
	}
	switch m := payload.(type) {
	case Advert:
		n.receiveAdvert(env, slot, m)
	case Withdraw:
		n.dropCandidate(env, m.Dest, slot)
	default:
		panic(fmt.Sprintf("pathvector: unexpected payload %T", payload))
	}
}

func (n *Node) receiveAdvert(env simnet.Env, from int, adv Advert) {
	self := env.Self()
	// Path-vector loop prevention: reject adverts already containing us. A
	// rejected advert still implicitly withdraws the neighbor's previous
	// announcement (each UPDATE replaces the neighbor's prior route).
	for _, hop := range adv.Path {
		if hop == self {
			n.dropCandidate(env, adv.Dest, from)
			return
		}
	}
	l := n.label(from) // receiver-side label for link U→V
	var sig algebra.Sig
	if adv.Origination {
		// One-hop route: signature from the origination set (§V-B step 4).
		sig = n.cfg.Algebra.Origin(l)
	} else {
		prev, ok := n.cfg.SigFromKey(adv.SigKey)
		if !ok {
			// Unknown signature: treat as prohibited (and as an implicit
			// withdraw of the neighbor's previous route).
			n.dropCandidate(env, adv.Dest, from)
			return
		}
		// gpvRecv: import filter, then signature generation.
		if !n.cfg.Algebra.Import(l, prev) {
			return
		}
		sig = n.cfg.Algebra.Concat(l, prev)
	}
	if algebra.IsProhibited(sig) {
		// Filtered: if this neighbor previously contributed a candidate for
		// the destination, its replacement advert revokes it.
		n.dropCandidate(env, adv.Dest, from)
		return
	}
	path := append([]simnet.NodeID{self}, adv.Path...)
	if n.cfg.MaxPathLen > 0 && len(path) > n.cfg.MaxPathLen {
		n.dropCandidate(env, adv.Dest, from)
		return
	}
	rt := Route{Dest: adv.Dest, Path: path, Sig: sig}
	if n.cfg.OnAdvert != nil {
		n.cfg.OnAdvert(self, rt)
	}
	// gpvStore with (dest, neighbor) keying: implicit withdraw of the
	// neighbor's previous advertisement.
	d := n.dest(adv.Dest)
	d.cands[from], d.has[from] = rt, true
	n.reselect(env, d)
}

// dropCandidate removes the candidate slot holds for dest, if any.
func (n *Node) dropCandidate(env simnet.Env, dest simnet.NodeID, slot int) {
	if d := n.dests[dest]; d != nil && d.has[slot] {
		d.cands[slot], d.has[slot] = Route{}, false
		n.reselect(env, d)
	}
}

// reselect implements gpvSelect: recompute the most preferred candidate.
// Ties (equally preferred or unordered signatures) break deterministically
// toward the shorter path, then the lexicographically smaller one — the
// stand-in for BGP's final tie-breakers, which the algebra leaves open.
func (n *Node) reselect(env simnet.Env, d *destRIB) {
	var best Route
	hasBest := false
	for _, i := range n.fold {
		if d.has[i] && (!hasBest || better(n.cfg.Algebra, d.cands[i], best)) {
			best, hasBest = d.cands[i], true
		}
	}
	switch {
	case !hasBest && !d.hasBest:
		return
	case hasBest && d.hasBest && d.best.Sig == best.Sig && pathEqual(d.best.Path, best.Path):
		return
	}
	d.best, d.hasBest = best, hasBest
	n.changes++
	n.lastChange = env.Now()
	n.markDirty(d)
	n.scheduleFlush(env)
}

// markDirty queues the destination for the next flush.
func (n *Node) markDirty(d *destRIB) {
	if !d.dirty {
		d.dirty = true
		n.dirty = append(n.dirty, d)
	}
}

// better reports whether a should replace b as the selection.
func better(alg algebra.Algebra, a, b Route) bool {
	ab := alg.Prefer(a.Sig, b.Sig)
	ba := alg.Prefer(b.Sig, a.Sig)
	switch {
	case ab && !ba:
		return true
	case ba && !ab:
		return false
	default:
		// Equally preferred or unordered: deterministic tie-break.
		if len(a.Path) != len(b.Path) {
			return len(a.Path) < len(b.Path)
		}
		return pathLess(a.Path, b.Path)
	}
}

// scheduleFlush arranges a batched gpvSend. With batching, at most one
// flush timer is outstanding; without, the flush runs on the next event.
// The batch timer is jittered by up to 50% in the manner of BGP MRAI
// timer (RFC 4271 §9.2.1.1): without it, symmetric gadgets such as DISAGREE
// stay in deterministic lockstep and never settle into a stable state.
func (n *Node) scheduleFlush(env simnet.Env) {
	if n.flushScheduled {
		return
	}
	n.flushScheduled = true
	d := n.cfg.BatchInterval
	if d > 0 {
		d += time.Duration(env.Rand().Int63n(int64(d)/2 + 1))
	}
	env.Schedule(d, func() {
		n.flushScheduled = false
		n.flush(env)
	})
}

// flush implements gpvSend: advertise every dirty destination, in
// destination order, to every neighbor admitted by the export filter, and
// withdraw from neighbors that previously received a route we can no
// longer offer them. One boxed Advert per destination is shared by all
// neighbors. Send never re-enters the handler, so the dirty list is stable
// while it is walked.
func (n *Node) flush(env simnet.Env) {
	self := env.Self()
	slices.SortFunc(n.dirty, func(a, b *destRIB) int { return cmp.Compare(a.dest, b.dest) })
	for _, d := range n.dirty {
		d.dirty = false
		// Origination announcements carry no signature: the receiver
		// derives it (§V-B step 4), and they are not subject to ⊕E.
		origin := d.dest == self && n.cfg.SelfOriginate
		var adv Advert
		var advPayload any
		if d.hasBest {
			adv = Advert{Dest: d.dest, Path: d.best.Path, Origination: origin}
			if !origin {
				adv.SigKey = sigKey(d.best.Sig)
			}
			advPayload = adv
		}
		for i, nb := range n.slots[:n.selfSlot()] {
			if nb == d.dest && n.cfg.SelfOriginate {
				// Never advertise a node to itself.
				continue
			}
			out := &d.out[i]
			if !d.hasBest || (!origin && !n.cfg.Algebra.Export(n.label(i), d.best.Sig)) {
				if out.Path != nil {
					w := Withdraw{Dest: d.dest}
					env.Send(nb, w, w.WireSize())
					*out = Advert{}
				}
				continue
			}
			if !sameAdvert(*out, adv) {
				env.Send(nb, advPayload, adv.WireSize())
				*out = adv
			}
		}
	}
	n.dirty = n.dirty[:0]
}

// sameAdvert reports whether two adverts for one destination carry the
// same route.
func sameAdvert(a, b Advert) bool {
	return a.Origination == b.Origination && a.SigKey == b.SigKey && pathEqual(a.Path, b.Path)
}

func sigKey(s algebra.Sig) string {
	if s == nil {
		return ""
	}
	return s.String()
}

func pathEqual(a, b []simnet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathLess(a, b []simnet.NodeID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
