package pathvector

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
)

// fakeEnv drives one Node directly: it records sends, queues timers for
// an explicit drain, and counts Neighbors calls. With copyNeighbors set it
// returns a fresh slice per call, as the TCP deployment's Env does.
type fakeEnv struct {
	self          simnet.NodeID
	nbs           []simnet.NodeID
	copyNeighbors bool
	nbCalls       int
	sent          []sentMsg
	timers        []func()
}

type sentMsg struct {
	to      simnet.NodeID
	payload any
}

func (e *fakeEnv) Self() simnet.NodeID { return e.self }
func (e *fakeEnv) Now() time.Duration  { return 0 }
func (e *fakeEnv) Rand() *rand.Rand    { return rand.New(rand.NewSource(1)) }
func (e *fakeEnv) Neighbors() []simnet.NodeID {
	e.nbCalls++
	if e.copyNeighbors {
		return slices.Clone(e.nbs)
	}
	return e.nbs
}
func (e *fakeEnv) Send(to simnet.NodeID, payload any, _ int) {
	e.sent = append(e.sent, sentMsg{to, payload})
}
func (e *fakeEnv) Schedule(_ time.Duration, fn func()) { e.timers = append(e.timers, fn) }

// drain runs queued timers (flushes) until none remain and returns the
// messages sent meanwhile, clearing the record.
func (e *fakeEnv) drain() []sentMsg {
	for len(e.timers) > 0 {
		fn := e.timers[0]
		e.timers = e.timers[1:]
		fn()
	}
	out := e.sent
	e.sent = nil
	return out
}

// sentTo counts messages per receiver.
func sentTo(msgs []sentMsg) map[simnet.NodeID]int {
	out := map[simnet.NodeID]int{}
	for _, m := range msgs {
		out[m.to]++
	}
	return out
}

// newSlotNode builds node u with neighbours a, b, c under shortest-path
// routing over unit links, started with the given originations.
func newSlotNode(t *testing.T, origs ...Route) (*Node, *fakeEnv) {
	t.Helper()
	n := NewNode(Config{
		Algebra:      algebra.IGPCost{},
		Label:        func(_, _ simnet.NodeID) algebra.Label { return algebra.LNum(1) },
		Originations: origs,
	})
	env := &fakeEnv{self: "u", nbs: []simnet.NodeID{"c", "a", "b"}}
	n.Start(env)
	return n, env
}

// learn feeds the node the adverts of the slot tests: x via a (cost 1) and
// b (cost 2), z via b (cost 1) and c (cost 5).
func learn(n *Node, env *fakeEnv) {
	n.Receive(env, "a", Advert{Dest: "x", Path: []simnet.NodeID{"a", "x"}, SigKey: "1"})
	n.Receive(env, "b", Advert{Dest: "x", Path: []simnet.NodeID{"b", "y", "x"}, SigKey: "2"})
	n.Receive(env, "b", Advert{Dest: "z", Path: []simnet.NodeID{"b", "z"}, SigKey: "1"})
	n.Receive(env, "c", Advert{Dest: "z", Path: []simnet.NodeID{"c", "z"}, SigKey: "5"})
}

func wantVia(t *testing.T, n *Node, dest simnet.NodeID, want ...simnet.NodeID) {
	t.Helper()
	best, ok := n.Best(dest)
	if !ok {
		t.Fatalf("no route to %s", dest)
	}
	if !pathEqual(best.Path, want) {
		t.Errorf("route to %s = %v, want %v", dest, best.Path, want)
	}
}

// TestSlotLinkDown: a session loss drops exactly the candidates learned
// from that neighbour, for every destination, and reselects from the rest.
func TestSlotLinkDown(t *testing.T) {
	n, env := newSlotNode(t)
	learn(n, env)
	env.drain()
	wantVia(t, n, "x", "u", "a", "x")
	wantVia(t, n, "z", "u", "b", "z")
	n.LinkDown(env, "b")
	b, a, c := n.slotOf["b"], n.slotOf["a"], n.slotOf["c"]
	for _, d := range n.destOrder {
		if d.has[b] {
			t.Errorf("%s still holds a candidate from b", d.dest)
		}
	}
	if x := n.dests["x"]; !x.has[a] {
		t.Error("x lost its candidate from a")
	}
	if z := n.dests["z"]; !z.has[c] {
		t.Error("z lost its candidate from c")
	}
	wantVia(t, n, "x", "u", "a", "x")
	wantVia(t, n, "z", "u", "c", "z")
	// Only z's selection changed: one advert to each neighbour.
	if got := sentTo(env.drain()); len(got) != 3 || got["a"] != 1 || got["b"] != 1 || got["c"] != 1 {
		t.Errorf("after LinkDown sent %v, want one advert per neighbour", got)
	}
}

// TestSlotLinkUp: a rejoined session gets the full table re-advertised,
// and only that peer hears anything.
func TestSlotLinkUp(t *testing.T) {
	n, env := newSlotNode(t)
	learn(n, env)
	if got := sentTo(env.drain()); got["c"] != 2 {
		t.Fatalf("initial flush sent %v, want 2 adverts to c", got)
	}
	n.LinkUp(env, "c")
	msgs := env.drain()
	if got := sentTo(msgs); len(got) != 1 || got["c"] != 2 {
		t.Errorf("after LinkUp sent %v, want exactly 2 adverts to c", got)
	}
	for _, m := range msgs {
		if _, ok := m.payload.(Advert); !ok {
			t.Errorf("LinkUp sent %T, want adverts", m.payload)
		}
	}
	// A second LinkUp for another peer leaves c quiet.
	n.LinkUp(env, "a")
	if got := sentTo(env.drain()); len(got) != 1 || got["a"] != 2 {
		t.Errorf("after LinkUp(a) sent %v, want exactly 2 adverts to a", got)
	}
}

// TestSlotResetRestart: Reset clears every destination, the selection and
// the Adj-RIB-Out; the restarted node rebuilds the same state and, having
// forgotten what it sent, advertises everything again.
func TestSlotResetRestart(t *testing.T) {
	orig := Route{Dest: "o", Path: []simnet.NodeID{"u", "e"}, Sig: algebra.Num(1)}
	n, env := newSlotNode(t, orig)
	learn(n, env)
	first := sentTo(env.drain())
	if n.Routes() != 3 {
		t.Fatalf("Routes = %d before reset, want 3", n.Routes())
	}
	n.Reset()
	if n.Routes() != 0 || len(n.dests) != 0 || len(n.dirty) != 0 {
		t.Fatalf("state survived Reset: routes=%d dests=%d dirty=%d", n.Routes(), len(n.dests), len(n.dirty))
	}
	if _, ok := n.Best("x"); ok {
		t.Fatal("route to x survived Reset")
	}
	n.Start(env)
	learn(n, env)
	if again := sentTo(env.drain()); !maps.Equal(first, again) {
		t.Errorf("restart sent %v, first start sent %v", again, first)
	}
	wantVia(t, n, "o", "u", "e")
	wantVia(t, n, "x", "u", "a", "x")
	wantVia(t, n, "z", "u", "b", "z")
	if env.nbCalls != 1 {
		t.Errorf("Neighbors called %d times across a restart, want 1", env.nbCalls)
	}
}

// TestSlotOriginationsToggle: disabling originations withdraws them (the
// node falls back to what it learned), re-enabling restores the selection;
// each toggle is one selection change.
func TestSlotOriginationsToggle(t *testing.T) {
	orig := Route{Dest: "x", Path: []simnet.NodeID{"u", "e"}, Sig: algebra.Num(0)}
	n, env := newSlotNode(t, orig)
	learn(n, env)
	env.drain()
	wantVia(t, n, "x", "u", "e")
	before := n.SelectionChanges()
	n.SetOriginationsEnabled(env, false)
	wantVia(t, n, "x", "u", "a", "x")
	if got := sentTo(env.drain()); len(got) != 3 {
		t.Errorf("disable sent %v, want the new route to every neighbour", got)
	}
	n.SetOriginationsEnabled(env, false) // idempotent
	n.SetOriginationsEnabled(env, true)
	wantVia(t, n, "x", "u", "e")
	if got := n.SelectionChanges() - before; got != 2 {
		t.Errorf("toggle made %d selection changes, want 2", got)
	}
	if !n.dests["x"].has[n.slotOf["a"]] {
		t.Error("toggle dropped the candidate learned from a")
	}
}

// TestSlotInternCopiesNeighborsOnce: with an Env that returns a fresh
// slice per Neighbors call (the TCP deployment), the node interns the
// adjacency once — even when an advert arrives before Start — and keeps
// its own copy, in the Env's order.
func TestSlotInternCopiesNeighborsOnce(t *testing.T) {
	n := NewNode(Config{
		Algebra: algebra.IGPCost{},
		Label:   func(_, _ simnet.NodeID) algebra.Label { return algebra.LNum(1) },
	})
	env := &fakeEnv{self: "u", nbs: []simnet.NodeID{"c", "a", "b"}, copyNeighbors: true}
	n.Receive(env, "b", Advert{Dest: "z", Path: []simnet.NodeID{"b", "z"}, SigKey: "1"})
	n.Start(env)
	learn(n, env)
	msgs := env.drain()
	n.LinkUp(env, "a")
	env.drain()
	if env.nbCalls != 1 {
		t.Errorf("Neighbors called %d times, want 1", env.nbCalls)
	}
	if want := []simnet.NodeID{"c", "a", "b", "u"}; !slices.Equal(n.slots, want) {
		t.Errorf("slots = %v, want %v", n.slots, want)
	}
	// Sends follow the Env's neighbour order within each destination.
	var order []simnet.NodeID
	for _, m := range msgs[:3] {
		order = append(order, m.to)
	}
	if want := []simnet.NodeID{"c", "a", "b"}; !slices.Equal(order, want) {
		t.Errorf("send order %v, want %v", order, want)
	}
}

// parityCost orders only costs of equal parity: a partial order, under
// which better is not transitive and the fold order decides the selection.
type parityCost struct{ algebra.IGPCost }

func (parityCost) Prefer(a, b algebra.Sig) bool {
	x, y := a.(algebra.Num), b.(algebra.Num)
	return x%2 == y%2 && x <= y
}

// TestSlotFoldOrder: with candidates A (via n1, cost 4, shortest path),
// B (via n2, cost 3) and C (via n3, cost 2, longest path), A beats B and
// B beats C on the path tie-break while C beats A on cost. Folding in
// NodeID order selects C; folding in the reversed adjacency order would
// select A. The selection must not depend on the adjacency order.
func TestSlotFoldOrder(t *testing.T) {
	for _, nbs := range [][]simnet.NodeID{{"n1", "n2", "n3"}, {"n3", "n2", "n1"}, {"n2", "n3", "n1"}} {
		n := NewNode(Config{
			Algebra: parityCost{},
			Label:   func(_, _ simnet.NodeID) algebra.Label { return algebra.LNum(1) },
		})
		env := &fakeEnv{self: "u", nbs: nbs}
		n.Start(env)
		n.Receive(env, "n1", Advert{Dest: "d", Path: []simnet.NodeID{"n1", "d"}, SigKey: "3"})
		n.Receive(env, "n2", Advert{Dest: "d", Path: []simnet.NodeID{"n2", "m", "d"}, SigKey: "2"})
		n.Receive(env, "n3", Advert{Dest: "d", Path: []simnet.NodeID{"n3", "m", "k", "d"}, SigKey: "1"})
		wantVia(t, n, "d", "u", "n3", "m", "k", "d")
	}
}
