// Package spp models the Stable Paths Problem (Griffin, Shepherd, Wilfong)
// and implements the FSR conversion of SPP instances to routing algebras
// (paper §III-B), the gadget library used in the evaluation (Figure 3's
// iBGP gadget, GOODGADGET, BADGADGET, DISAGREE), and the extraction of SPP
// instances from protocol executions (§VI-B).
//
// An SPP instance is a topology in which each node carries a ranked list of
// permitted paths to a single destination. Following the paper's Figure 3
// conventions, a permitted path is written as the owning node followed by
// the downstream nodes and terminated by an origin token (the externally
// learned route, r1/r2/r3 in the figure). An egress node's own path is the
// two-element path [node, origin], which the paper renders as just "(r1)".
package spp

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
)

// Node identifies a router or AS in an SPP instance. Origin tokens (the
// externally learned routes, e.g. r1) are also Nodes: they appear only as
// the last element of paths.
type Node string

// Path is a permitted path: Path[0] is the owning node, Path[len-1] is the
// origin token, and consecutive elements are connected by links.
type Path []Node

// P builds a Path from node names, a convenience for literals:
// P("a","b","e","r2").
func P(nodes ...string) Path {
	p := make(Path, len(nodes))
	for i, n := range nodes {
		p[i] = Node(n)
	}
	return p
}

// String renders the path the way the paper writes it: "aber2", except that
// multi-character node names are joined with dots ("u1.u7.r2").
func (p Path) String() string { return string(appendPath(nil, p)) }

// appendPath appends p.String() to buf.
func appendPath(buf []byte, p Path) []byte {
	dots := false
	for _, n := range p {
		if len(n) > 1 && !isOrigin(n) {
			dots = true
			break
		}
	}
	for i, n := range p {
		if i > 0 && dots {
			buf = append(buf, '.')
		}
		buf = append(buf, n...)
	}
	return buf
}

// isOrigin reports whether the node looks like an origin token (r1, r2…);
// purely cosmetic, used by String.
func isOrigin(n Node) bool {
	return len(n) >= 2 && n[0] == 'r' && n[1] >= '0' && n[1] <= '9'
}

// Owner returns the owning node (the first element).
func (p Path) Owner() Node {
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Tail returns the path with the owner removed: the permitted path the
// next-hop node must itself hold for this path to be realizable.
func (p Path) Tail() Path {
	if len(p) <= 1 {
		return nil
	}
	return p[1:]
}

// Key returns a comparable rendering used for map keys.
func (p Path) Key() string { return p.String() }

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Link is a directed link (an iBGP session direction or an inter-AS edge).
type Link struct {
	From, To Node
}

// String renders "from→to".
func (l Link) String() string { return string(l.From) + "→" + string(l.To) }

// Instance is an SPP instance: a topology plus ranked permitted paths.
type Instance struct {
	// Name identifies the instance in reports and generated algebra names.
	Name string
	// Nodes lists the real (router) nodes in a stable order.
	Nodes []Node
	// Origins lists the origin tokens (externally learned routes).
	Origins []Node
	// Links lists the directed links among real nodes. An undirected
	// session contributes both directions.
	Links []Link
	// Cost optionally annotates links with IGP costs (Figure 3 shows them);
	// zero-valued entries mean unannotated.
	Cost map[Link]int
	// Permitted maps each node to its ranked permitted paths, most
	// preferred first. Egress nodes hold their [node, origin] path.
	Permitted map[Node][]Path
}

// NewInstance returns an empty instance with initialized maps.
func NewInstance(name string) *Instance {
	return &Instance{
		Name:      name,
		Cost:      map[Link]int{},
		Permitted: map[Node][]Path{},
	}
}

// AddNode declares a real node (idempotent).
func (in *Instance) AddNode(n Node) {
	for _, e := range in.Nodes {
		if e == n {
			return
		}
	}
	in.Nodes = append(in.Nodes, n)
}

// AddOrigin declares an origin token (idempotent).
func (in *Instance) AddOrigin(n Node) {
	for _, e := range in.Origins {
		if e == n {
			return
		}
	}
	in.Origins = append(in.Origins, n)
}

// AddSession adds a bidirectional link between two real nodes with an
// optional IGP cost.
func (in *Instance) AddSession(a, b Node, cost int) {
	in.AddNode(a)
	in.AddNode(b)
	in.Links = append(in.Links, Link{a, b}, Link{b, a})
	if cost != 0 {
		in.Cost[Link{a, b}] = cost
		in.Cost[Link{b, a}] = cost
	}
}

// Rank sets the ranked permitted paths of a node, most preferred first.
// Origin tokens referenced by the paths are declared automatically.
func (in *Instance) Rank(n Node, paths ...Path) {
	in.AddNode(n)
	for _, p := range paths {
		if len(p) >= 2 {
			in.AddOrigin(p[len(p)-1])
		}
	}
	in.Permitted[n] = paths
}

// HasLink reports whether the directed link u→v exists.
func (in *Instance) HasLink(u, v Node) bool {
	for _, l := range in.Links {
		if l.From == u && l.To == v {
			return true
		}
	}
	return false
}

// isReal reports whether n is a declared real node.
func (in *Instance) isReal(n Node) bool {
	for _, e := range in.Nodes {
		if e == n {
			return true
		}
	}
	return false
}

// Validate checks structural well-formedness: every ranking belongs to a
// declared node; every permitted path is owned by its node, terminates in
// an origin token, and walks existing links among declared nodes; and no
// two directed links share a §III-B label (a repeated link, or two links
// whose endpoint names concatenate alike). It is the validation the SPP
// pipeline runs (buildShardPrep), linear in the instance size.
func (in *Instance) Validate() error {
	_, err := buildShardPrep(in, 1)
	return err
}

// validatePath is one permitted path's structural check.
func validatePath(in *Instance, n Node, p Path, origins map[Node]bool, links map[Link]bool, nodeIdx map[Node]int32) error {
	if len(p) < 2 {
		return fmt.Errorf("spp %s: node %s: path %q too short", in.Name, n, p)
	}
	if p.Owner() != n {
		return fmt.Errorf("spp %s: node %s: path %s not owned by node", in.Name, n, p)
	}
	if !origins[p[len(p)-1]] {
		return fmt.Errorf("spp %s: node %s: path %s does not end in an origin token", in.Name, n, p)
	}
	for i := 0; i+2 < len(p); i++ { // hops among real nodes
		if !links[Link{p[i], p[i+1]}] {
			return fmt.Errorf("spp %s: node %s: path %s uses missing link %s→%s", in.Name, n, p, p[i], p[i+1])
		}
	}
	for i := 1; i+1 < len(p); i++ {
		if _, ok := nodeIdx[p[i]]; !ok {
			return fmt.Errorf("spp %s: node %s: path %s crosses undeclared node %s", in.Name, n, p, p[i])
		}
	}
	return nil
}

// linkLabel renders the §III-B label constant of a directed link.
func linkLabel(l Link) algebra.Label { return algebra.LSym("l_" + string(l.From) + string(l.To)) }

// sameLabel reports whether two links render the same label, without
// building either rendering.
func sameLabel(a, b Link) bool {
	if len(a.From) > len(b.From) {
		a, b = b, a
	}
	rest, ok := strings.CutPrefix(string(b.From), string(a.From))
	return ok && strings.HasPrefix(string(a.To), rest) && string(a.To)[len(rest):] == string(b.To)
}

// labelHash is FNV-1a over a link's label rendering.
func labelHash(l Link) uint64 {
	return fnvAppend(fnvAppend(fnvOffset, string(l.From)), string(l.To))
}

// checkLabels reports the first directed link whose label repeats an
// earlier link's. Labels are screened by their 64-bit hashes (labelHash
// per link); only a repeated hash pays for the exact check.
func checkLabels(in *Instance, hashes []uint64) error {
	if !hasRepeat(hashes) {
		return nil
	}
	seen := make(map[string]struct{}, len(in.Links))
	for _, l := range in.Links {
		lab := string(l.From) + string(l.To)
		if _, dup := seen[lab]; dup {
			return fmt.Errorf("spp %s: duplicate link %s", in.Name, l)
		}
		seen[lab] = struct{}{}
	}
	return nil
}

const fnvOffset = uint64(14695981039346656037)

// fnvAppend folds s into an FNV-1a hash.
func fnvAppend(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hasRepeat screens hashes for a repeated value through an open-addressing
// table: linear time, one allocation, no map. The low bit is forced on so
// that 0 can mark empty slots; a screen may report a false repeat, never
// miss a true one.
func hasRepeat(keys []uint64) bool {
	size := 1
	for size < 2*len(keys) {
		size <<= 1
	}
	shift := 64 - bits.Len(uint(size-1))
	table := make([]uint64, size)
	for _, k := range keys {
		k |= 1
		i := int((k * 0x9E3779B97F4A7C15) >> shift)
		for table[i] != 0 {
			if table[i] == k {
				return true
			}
			i = (i + 1) & (size - 1)
		}
		table[i] = k
	}
	return false
}

// permitted reports whether path p is in the owner's ranked list.
func (in *Instance) permitted(p Path) bool {
	for _, q := range in.Permitted[p.Owner()] {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// Conversion is the result of translating an SPP instance to a routing
// algebra (§III-B), retaining the maps needed to interpret analysis results
// in terms of the instance (§VI-B pinpointing) and to deploy the algebra on
// the instance's topology.
type Conversion struct {
	// Instance is the source instance.
	Instance *Instance
	// Algebra is the finite algebra encoding the instance.
	Algebra *algebra.Tabular
	// SigOf maps a permitted path (by Key) to its signature.
	SigOf map[string]algebra.Sig
	// PathOf maps a signature back to the permitted path.
	PathOf map[algebra.Sig]Path
	// LabelOf maps each directed link to its unique label constant.
	LabelOf map[Link]algebra.Label
	// LinkOf maps a label back to its link.
	LinkOf map[algebra.Label]Link
}

// sigName renders the paper's signature naming: the egress path [d, r1] is
// written r1; longer paths aber2 become r_aber2.
func sigName(p Path) string { return string(appendSigName(nil, p)) }

// appendSigName appends sigName(p) to buf.
func appendSigName(buf []byte, p Path) []byte {
	if len(p) == 2 {
		return append(buf, p[1]...)
	}
	return appendPath(append(buf, 'r', '_'), p)
}

// ToAlgebra converts the instance to a routing algebra following §III-B:
//
//   - each directed link uv gets a unique label constant l_uv;
//   - each permitted path p gets a unique signature r_p;
//   - each per-node ranking r1, …, rn becomes the pairwise preferences
//     r1 ≺ r2, …, rn−1 ≺ rn;
//   - for every permitted path uvp whose tail vp is itself permitted at v,
//     the concatenation entry l_uv ⊕ r_vp = r_uvp is defined; every other
//     combination is φ (prohibited).
//
// Egress paths [u, o] become the origination set: node u originates r_[u,o].
func (in *Instance) ToAlgebra() (*Conversion, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	conv := &Conversion{
		Instance: in,
		SigOf:    map[string]algebra.Sig{},
		PathOf:   map[algebra.Sig]Path{},
		LabelOf:  map[Link]algebra.Label{},
		LinkOf:   map[algebra.Label]Link{},
	}
	b := algebra.NewBuilder("spp-" + in.Name)

	// Labels: one constant per directed link.
	var labels []algebra.Label
	for _, l := range in.Links {
		lab := linkLabel(l) // distinct per link: Validate rejects repeats
		conv.LabelOf[l] = lab
		conv.LinkOf[lab] = l
		labels = append(labels, lab)
	}
	b.Labels(labels...)

	// Signatures: one constant per permitted path, in node order then rank
	// order for stability.
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			s := algebra.Symbol(sigName(p))
			if _, dup := conv.PathOf[s]; dup {
				return nil, fmt.Errorf("spp %s: duplicate permitted path %s", in.Name, p)
			}
			conv.SigOf[p.Key()] = s
			conv.PathOf[s] = p
			b.Sigs(s)
		}
	}

	// Preferences: the ranked list becomes adjacent pairwise preferences.
	for _, n := range in.Nodes {
		paths := in.Permitted[n]
		sigs := make([]algebra.Sig, len(paths))
		for i, p := range paths {
			sigs[i] = conv.SigOf[p.Key()]
		}
		b.Chain(sigs...)
	}

	// Concatenation: l_uv ⊕ r_vp = r_uvp for permitted uvp with permitted
	// tail vp. Unlisted combinations default to φ.
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			tail := p.Tail()
			if len(tail) < 2 {
				continue // egress path: origination, no concatenation
			}
			if !in.permitted(tail) {
				continue // tail not permitted: path can never be realized
			}
			b.Concat(conv.LabelOf[Link{p[0], p[1]}], conv.SigOf[tail.Key()], conv.SigOf[p.Key()])
		}
	}

	// SPP filtering is fully encoded in ⊕P (unlisted ⇒ φ); imports and
	// exports pass everything, and link constants are their own reverses.
	alg, err := b.Build()
	if err != nil {
		return nil, err
	}
	conv.Algebra = alg
	return conv, nil
}

// Origination is one entry of the origination set: node announces sig at
// protocol start (its externally learned route).
type Origination struct {
	Node Node
	Sig  algebra.Sig
	Path Path
}

// Originations lists the egress paths of the instance as origination-set
// entries, in node order.
func (c *Conversion) Originations() []Origination {
	var out []Origination
	for _, n := range c.Instance.Nodes {
		for _, p := range c.Instance.Permitted[n] {
			if len(p) == 2 {
				out = append(out, Origination{Node: n, Sig: c.SigOf[p.Key()], Path: p})
			}
		}
	}
	return out
}

// OwnerOfSig returns the node whose ranking contains the signature's path.
func (c *Conversion) OwnerOfSig(s algebra.Sig) (Node, bool) {
	p, ok := c.PathOf[s]
	if !ok {
		return "", false
	}
	return p.Owner(), true
}

// SuspectNodes maps an unsat core back to the nodes whose configuration the
// violating constraints mention — the §VI-B "hint" pointing operators at the
// routers to fix.
func (c *Conversion) SuspectNodes(core []analysis.Constraint) []Node {
	return suspectNodes(core, c.OwnerOfSig)
}

// suspectNodes is the one §VI-B suspect mapping: preference constraints
// implicate the ranking's owner, monotonicity constraints the owner of the
// derived path. owner resolves a signature to its owning node. The result
// is deduplicated and sorted.
func suspectNodes(core []analysis.Constraint, owner func(algebra.Sig) (Node, bool)) []Node {
	seen := map[Node]bool{}
	var out []Node
	add := func(s algebra.Sig) {
		if n, found := owner(s); found && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, cc := range core {
		switch cc.Kind {
		case analysis.KindPreference:
			add(cc.Pref.A)
		case analysis.KindMonotonicity:
			add(cc.Entry.Out)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coreOwners resolves the signatures a core mentions to their owning
// nodes with one allocation-free scan over the permitted paths — the
// owner lookup for pipelines that hold no Conversion.
func (in *Instance) coreOwners(core []analysis.Constraint) func(algebra.Sig) (Node, bool) {
	owners := make(map[string]Node, 2*len(core))
	for _, c := range core {
		switch c.Kind {
		case analysis.KindPreference:
			owners[c.Pref.A.String()] = ""
		case analysis.KindMonotonicity:
			owners[c.Entry.Out.String()] = ""
		}
	}
	left := len(owners)
	var buf []byte
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			if left == 0 {
				break
			}
			buf = appendSigName(buf[:0], p)
			if o, want := owners[string(buf)]; want && o == "" {
				owners[string(buf)] = n
				left--
			}
		}
	}
	return func(s algebra.Sig) (Node, bool) {
		n := owners[s.String()]
		return n, n != ""
	}
}
