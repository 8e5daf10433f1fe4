package main

import (
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
)

// size scales every input and rate of a run. The self-test uses tiny so a
// workload finishes in seconds; the benchmark always runs full.
type size struct {
	name      string
	ljScale   uint  // RMAT scale of the build input (2^scale vertices)
	ljCliques []int // planted clique sizes; the largest sets kmax
	baN, baM  int   // Barabasi-Albert vertices and edges per new vertex

	readRate  float64 // open-loop reads per second on the BA graph
	ljRate    float64 // open-loop reads per second on the build input
	writeRate float64 // open-loop unary writes per second (serve)
	readProbe int     // reads in ingest's read phase
	ljProbe   int     // reads in build's read phase

	minBuilds    int // build: timed builds even when -seconds is short
	ljWrites     int // build: unary writes on the built index
	setups       int // set-ups per run; setup_s is their median
	baBuilds     int // serve, ingest: BA builds per run; build_s is their median
	replayWrites int // build, traced: writes replayed on the built index
	tailFlushes  int // ingest: fixed WAL tail, in flushes...
	tailFlush    int // ...of this many mutations, that recover_s replays
	tailRestarts int // restarts timed over the WAL the run left
	pairs        int // ingest, traced: paired live and replayed rounds
}

var sizes = map[string]size{
	"full": {
		name: "full", ljScale: 17, ljCliques: []int{120, 80, 60, 40, 30}, baN: 40000, baM: 5,
		readRate: 1000, ljRate: 1000, writeRate: 10, readProbe: 12000, ljProbe: 8000,
		minBuilds: 3, ljWrites: 5, setups: 5, baBuilds: 12, replayWrites: 2, tailFlushes: 8, tailFlush: 8192, tailRestarts: 3, pairs: 8,
	},
	"tiny": {
		name: "tiny", ljScale: 10, ljCliques: []int{16, 10}, baN: 2000, baM: 4,
		readRate: 500, ljRate: 500, writeRate: 20, readProbe: 200, ljProbe: 100,
		minBuilds: 2, ljWrites: 2, setups: 2, baBuilds: 3, replayWrites: 2, tailFlushes: 2, tailFlush: 256, tailRestarts: 2, pairs: 1,
	},
}

// ljGraph is the build input: heavy-tailed RMAT (edge factor 6) with
// planted cliques, the LiveJournal analog's shape at 2^scale vertices.
func ljGraph(sz size, seed int64) *graph.Graph {
	return gen.WithPlantedCliques(gen.RMAT(sz.ljScale, 6, 0.57, 0.19, 0.19, seed), sz.ljCliques, seed)
}

// baGraph is the serve and ingest input: preferential attachment, kmax
// about 6 at full size.
func baGraph(sz size, seed int64) *graph.Graph {
	return gen.BarabasiAlbert(sz.baN, sz.baM, seed)
}

// edgeModel is the benchmark's own copy of a served edge set. Write
// streams are drawn from it, alternating an insertion of a new pair with
// a deletion of a live edge, so the edge count stays level; a protected
// sample is never deleted, so reads of it must always be found. The final
// set is decomposed afresh to check what the server ends up serving.
type edgeModel struct {
	r         *rand.Rand
	n         int
	live      map[uint64]int32 // edge key -> index in deletable, or -1 if protected
	deletable []graph.Edge
	protected []graph.Edge
	nextDel   bool
}

// protectEvery puts one edge in this many into the never-deleted sample.
const protectEvery = 8

func newEdgeModel(g *graph.Graph, seed int64) *edgeModel {
	m := &edgeModel{r: rand.New(rand.NewSource(seed)), n: g.NumVertices(), live: make(map[uint64]int32, g.NumEdges())}
	for i, e := range g.Edges() {
		if i%protectEvery == 0 {
			m.live[e.Key()] = -1
			m.protected = append(m.protected, e)
			continue
		}
		m.live[e.Key()] = int32(len(m.deletable))
		m.deletable = append(m.deletable, e)
	}
	return m
}

// next draws the stream's next mutation and applies it to the model.
func (m *edgeModel) next() ingest.Mutation {
	m.nextDel = !m.nextDel
	if !m.nextDel || len(m.deletable) == 0 {
		for {
			e := graph.Edge{U: uint32(m.r.Intn(m.n)), V: uint32(m.r.Intn(m.n))}.Canon()
			if _, ok := m.live[e.Key()]; e.U != e.V && !ok {
				m.live[e.Key()] = int32(len(m.deletable))
				m.deletable = append(m.deletable, e)
				return ingest.Mutation{Op: ingest.OpAdd, Edge: e}
			}
		}
	}
	i := m.r.Intn(len(m.deletable))
	e := m.deletable[i]
	last := len(m.deletable) - 1
	m.deletable[i] = m.deletable[last]
	m.live[m.deletable[i].Key()] = int32(i)
	m.deletable = m.deletable[:last]
	delete(m.live, e.Key())
	return ingest.Mutation{Op: ingest.OpDel, Edge: e}
}

// edges returns the model's current edge set.
func (m *edgeModel) edges() []graph.Edge {
	return append(slices.Clone(m.protected), m.deletable...)
}

// split separates mutations into the adds and dels of one batch.
func split(muts []ingest.Mutation) (adds, dels []graph.Edge) {
	for _, mu := range muts {
		if mu.Op == ingest.OpDel {
			dels = append(dels, mu.Edge)
		} else {
			adds = append(adds, mu.Edge)
		}
	}
	return adds, dels
}

// oracle is the reference answer for an edge set: one sequential peel.
type oracle struct {
	kmax int32
	hist []int64
	phi  map[uint64]int32
}

func newOracle(edges []graph.Edge) *oracle {
	res := core.Decompose(graph.FromEdges(edges))
	return &oracle{kmax: res.KMax, hist: res.ClassSizes(), phi: res.ClassMap()}
}

// sameHist compares two class histograms, ignoring trailing zero classes.
func sameHist(a, b []int64) bool {
	trim := func(h []int64) []int64 {
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		return h
	}
	return slices.Equal(trim(a), trim(b))
}
