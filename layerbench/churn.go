package main

import (
	"fmt"
	"math"
	"net/netip"
	"sort"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/streamtest"
	"github.com/asrank-go/asrank/internal/topology"
)

// collection is one simulated route-collector view: the ground-truth
// topology and the path corpus its vantage points export.
type collection struct {
	topo *topology.Topology
	sim  *bgpsim.Result
	opts bgpsim.Options
}

// simulate generates a topology of ases ASes and the corpus vps vantage
// points observe on it, both from seed alone. Two properties that
// decide how much work the corpus is, and that seeds alone would move
// widely, are held fixed: the number of partial-feed VPs (see
// partialFeeds) and the number of rows (see resizeCorpus).
func simulate(seed int64, ases, vps, rows int) (*collection, error) {
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(seed)
	opts.NumVPs = vps
	partialFrac := opts.PartialFeedFrac
	opts.PartialFeedFrac = 0
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		return nil, fmt.Errorf("simulate %d ASes: %w", ases, err)
	}
	rng := stats.NewRNG(seed).Split(0x9a47)
	k := int(math.Round(partialFrac * float64(len(sim.VPs))))
	sim.PartialVPs = make(map[uint32]bool, k)
	for _, i := range rng.SampleInts(len(sim.VPs), k) {
		sim.PartialVPs[sim.VPs[i]] = true
	}
	col := &collection{topo: topo, sim: sim, opts: opts}
	sim.Dataset = col.partialFeeds(sim.Dataset)
	col.resizeCorpus(rows)
	return col, nil
}

// partialFeeds keeps, for the partial-feed VPs, only the routes they
// learned from a customer or originate — what a VP that treats the
// collector as a peer exports. bgpsim draws each VP's feed type at
// random, so the number of full feeds, and with it the corpus's
// distinct routes, would swing with the seed; here the count is fixed
// (bgpsim's default share of the VPs) and only which VPs varies.
func (c *collection) partialFeeds(ds *paths.Dataset) *paths.Dataset {
	out := &paths.Dataset{Paths: make([]paths.Path, 0, len(ds.Paths))}
	for _, p := range ds.Paths {
		if c.sim.PartialVPs[p.VP()] && len(p.ASNs) > 1 && c.topo.Rel(p.ASNs[0], p.ASNs[1]) != topology.P2C {
			continue
		}
		out.Add(p)
	}
	return out
}

// resizeCorpus holds the corpus at about target rows whatever the
// seed. Seeds alone move the row count of a 4000-AS corpus between
// 163k and 271k, mostly through the heavy-tailed prefix count per
// origin; a row repeats its VP's AS path once per origin prefix. So the
// prefix count of every origin is scaled by one factor (at least one
// prefix each, a few origins one more to land on target), extra
// prefixes come from 100.0.0.0/8 upward, which the
// generator never allocates, and each VP's path to an origin is
// repeated over the origin's new prefixes. The topology is rewritten
// to match, so later simulations on it see the same prefixes. AS
// paths, vantage points and ground truth are untouched.
func (c *collection) resizeCorpus(target int) {
	owner := make(map[netip.Prefix]uint32)
	for _, asn := range c.topo.ASNs() {
		for _, pfx := range c.topo.AS(asn).Prefixes {
			owner[pfx] = asn
		}
	}
	routes := make(map[uint32]int) // VPs with a route to each origin
	for _, p := range c.sim.Dataset.Paths {
		if o := owner[p.Prefix]; c.topo.AS(o).Prefixes[0] == p.Prefix {
			routes[o]++
		}
	}
	origins := make([]uint32, 0, len(routes))
	for o := range routes {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	count := func(o uint32, f float64) int {
		return max(1, int(math.Round(f*float64(len(c.topo.AS(o).Prefixes)))))
	}
	rows := func(f float64) int {
		n := 0
		for _, o := range origins {
			n += routes[o] * count(o, f)
		}
		return n
	}
	lo, hi := 0.0, 16.0
	for i := 0; i < 40; i++ {
		if mid := (lo + hi) / 2; rows(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	// rows(lo) is just under target; single extra prefixes on the
	// origins with the fewest routes close most of the gap.
	counts := make(map[uint32]int, len(origins))
	short := target
	for _, o := range origins {
		counts[o] = count(o, lo)
		short -= routes[o] * counts[o]
	}
	for _, o := range origins {
		if routes[o] <= short {
			counts[o]++
			short -= routes[o]
		}
	}
	next := uint32(100) << 24
	for _, o := range origins {
		a := c.topo.AS(o)
		k := counts[o]
		if k <= len(a.Prefixes) {
			a.Prefixes = a.Prefixes[:k:k]
			continue
		}
		for len(a.Prefixes) < k {
			a.Prefixes = append(a.Prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{
				byte(next >> 24), byte(next >> 16), byte(next >> 8), 0}), 24))
			next += 256
		}
	}
	ds := &paths.Dataset{Paths: make([]paths.Path, 0, target)}
	for _, p := range c.sim.Dataset.Paths {
		a := c.topo.AS(owner[p.Prefix])
		if a.Prefixes[0] != p.Prefix {
			continue
		}
		for _, pfx := range a.Prefixes {
			ds.Add(paths.Path{Collector: p.Collector, Prefix: pfx, ASNs: p.ASNs})
		}
	}
	c.sim.Dataset = ds
}

// ixpSet is the route-server set sanitization splices out.
func (c *collection) ixpSet() map[uint32]bool {
	m := make(map[uint32]bool, len(c.sim.RouteServerASNs))
	for _, a := range c.sim.RouteServerASNs {
		m[a] = true
	}
	return m
}

// Churn shape. A route leaves its base path either by switching to its
// alternative (a switchProb share of events, held 2–8 epochs) or by
// flapping (withdrawn 1–3 epochs), and always comes back, so the share
// of routes away from base levels off after about eight epochs and
// stays there.
const (
	switchProb   = 0.7
	dropPeerProb = 0.3 // per peering link, in the perturbed run
	dropProvProb = 0.3 // per multihomed AS: lose one provider link
	topRanks     = 60  // the clique search looks at the top 50 ranks
	minCarriers  = 25  // routes a top link needs before churn may touch them
)

type routeState int8

const (
	onBase routeState = iota
	onAlt
	withdrawn
)

type churnRoute struct {
	key    streamtest.RouteKey
	base   []uint32
	alt    []uint32 // nil when the perturbed run routes the prefix the same way
	frozen bool     // one of few carriers of a link among the top ranks
	state  routeState
}

// churn is a stationary route-churn generator for the stream workload.
// Every path it announces comes from the simulator: the base run, or a
// run over a perturbed copy of the same topology (some peering links
// and some secondary provider links removed), whose paths are
// valley-free on the base topology too. Routes switch to their
// alternative or flap, and switch back later, so the table neither
// grows nor drains however many epochs run.
type churn struct {
	rng      *stats.RNG
	routes   []churnRoute
	alts     []int         // routes with an alternative path
	due      map[int][]int // epoch -> routes that return to base then
	epoch    int
	perEpoch int
}

// newChurn derives the generator from a collection. perEpoch is the
// number of route events in a steady epoch.
func newChurn(seed int64, c *collection, perEpoch int) (*churn, error) {
	alt, err := perturb(c.topo, seed)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.VPs = c.sim.VPs
	altSim, err := bgpsim.Run(alt, opts)
	if err != nil {
		return nil, fmt.Errorf("simulate perturbed topology: %w", err)
	}
	altPath := make(map[streamtest.RouteKey][]uint32, len(altSim.Dataset.Paths))
	for _, p := range c.partialFeeds(altSim.Dataset).Paths {
		altPath[routeKey(p)] = p.ASNs
	}
	ch := &churn{
		rng:      stats.NewRNG(seed).Split(0xc4a2),
		due:      make(map[int][]int),
		perEpoch: perEpoch,
	}
	// Links among the top-ranked ASes decide the clique. Churn must not
	// make one appear or vanish, or the clique flickers and epochs turn
	// into full rebuilds at a rate that depends on the seed: routes that
	// are among the few carriers of such a link never churn, and
	// alternatives that would add one are not used.
	ix := core.NewCorpusIndex()
	for _, p := range c.sim.Dataset.Paths {
		ix.AddPath(p.ASNs, 1)
	}
	top := make(map[uint32]bool, topRanks)
	for _, a := range ix.Rank()[:min(topRanks, len(ix.Rank()))] {
		top[a] = true
	}
	carriers := make(map[paths.Link]int)
	seen := make(map[streamtest.RouteKey]bool, len(c.sim.Dataset.Paths))
	for _, p := range c.sim.Dataset.Paths {
		if k := routeKey(p); !seen[k] {
			seen[k] = true
			for _, l := range topLinks(p.ASNs, top) {
				carriers[l]++
			}
		}
	}
	rare := func(path []uint32) bool {
		for _, l := range topLinks(path, top) {
			if carriers[l] < minCarriers {
				return true
			}
		}
		return false
	}
	clear(seen)
	for _, p := range c.sim.Dataset.Paths {
		k := routeKey(p)
		if seen[k] {
			continue
		}
		seen[k] = true
		r := churnRoute{key: k, base: p.ASNs, frozen: rare(p.ASNs)}
		if a, ok := altPath[k]; ok && !r.frozen && !equalPath(a, p.ASNs) && !rare(a) {
			r.alt = a
			ch.alts = append(ch.alts, len(ch.routes))
		}
		ch.routes = append(ch.routes, r)
	}
	return ch, nil
}

// topLinks lists the links of path whose ends are both in top.
func topLinks(path []uint32, top map[uint32]bool) []paths.Link {
	var out []paths.Link
	for i := 1; i < len(path); i++ {
		if a, b := path[i-1], path[i]; a != b && top[a] && top[b] {
			out = append(out, paths.NewLink(a, b))
		}
	}
	return out
}

func routeKey(p paths.Path) streamtest.RouteKey {
	return streamtest.RouteKey{Collector: p.Collector, VP: p.VP(), Prefix: p.Prefix}
}

func equalPath(a, b []uint32) bool {
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

// bootstrap announces every route on its base path.
func (c *churn) bootstrap() []streamtest.Event {
	evs := make([]streamtest.Event, 0, len(c.routes))
	for i := range c.routes {
		evs = append(evs, streamtest.Event{Key: c.routes[i].key, ASNs: c.routes[i].base})
	}
	return evs
}

// next returns the following epoch's events: first the routes due back
// on their base path, then fresh switches and flaps up to perEpoch.
func (c *churn) next() []streamtest.Event {
	c.epoch++
	var evs []streamtest.Event
	for _, i := range c.due[c.epoch] {
		r := &c.routes[i]
		r.state = onBase
		evs = append(evs, streamtest.Event{Key: r.key, ASNs: r.base})
	}
	delete(c.due, c.epoch)
	for tries := 0; len(evs) < c.perEpoch && tries < 4*c.perEpoch; tries++ {
		i, switchRoute := c.rng.Intn(len(c.routes)), false
		if len(c.alts) > 0 && c.rng.Bool(switchProb) {
			i, switchRoute = c.alts[c.rng.Intn(len(c.alts))], true
		}
		r := &c.routes[i]
		if r.state != onBase || r.frozen {
			continue
		}
		var back int
		if switchRoute {
			r.state = onAlt
			evs = append(evs, streamtest.Event{Key: r.key, ASNs: r.alt})
			back = c.epoch + c.rng.Range(2, 8)
		} else {
			r.state = withdrawn
			evs = append(evs, streamtest.Event{Withdraw: true, Key: r.key})
			back = c.epoch + c.rng.Range(1, 3)
		}
		c.due[back] = append(c.due[back], i)
	}
	return evs
}

// census counts routes currently switched or withdrawn, and routes
// kept out of churn.
func (c *churn) census() (switched, flapped, frozen int) {
	for i := range c.routes {
		switch c.routes[i].state {
		case onAlt:
			switched++
		case withdrawn:
			flapped++
		}
		if c.routes[i].frozen {
			frozen++
		}
	}
	return switched, flapped, frozen
}

// perturb copies t without some links: each peering link with
// probability dropPeerProb, and for each multihomed AS, with
// probability dropProvProb, one provider link. Every AS keeps a
// provider, so reachability is unchanged while many best paths move.
func perturb(t *topology.Topology, seed int64) (*topology.Topology, error) {
	rng := stats.NewRNG(seed).Split(0x9e27)
	out := topology.New()
	for _, asn := range t.ASNs() {
		a := t.AS(asn)
		out.AddAS(&topology.AS{ASN: a.ASN, Class: a.Class, Region: a.Region, Prefixes: a.Prefixes})
	}
	links := t.Links()
	keys := make([]paths.Link, 0, len(links))
	for l := range links {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	lostProvider := make(map[uint32]bool)
	for _, l := range keys {
		var err error
		switch rel := links[l]; rel {
		case topology.P2P:
			if rng.Bool(dropPeerProb) {
				continue
			}
			err = out.AddP2P(l.A, l.B)
		default:
			provider, customer := l.A, l.B
			if rel == topology.C2P {
				provider, customer = l.B, l.A
			}
			if len(t.AS(customer).Providers) > 1 && !lostProvider[customer] && rng.Bool(dropProvProb) {
				lostProvider[customer] = true
				continue
			}
			err = out.AddP2C(provider, customer)
		}
		if err != nil {
			return nil, fmt.Errorf("perturb topology: %w", err)
		}
	}
	return out, nil
}
