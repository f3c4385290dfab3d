package clique

import (
	"slices"
	"sync"
)

// Pool shares search arenas across searches and requests. regimapd installs
// one pool per process so the clique engine's states and bitsets are reused
// across mapping requests instead of reallocated; REGIMap's raced placement
// passes draw one arena each from it. An arena is reused only for a graph
// of its own node count and is fully wiped on reuse, so pooling is
// invisible to results. The pool keeps at most poolCap idle arenas, dropping the least
// recently released first, so a long-lived pool fed graphs of ever-new sizes
// stays bounded.
type Pool struct {
	mu   sync.Mutex
	free []*arena // idle arenas, least recently released first
}

// poolCap bounds a Pool's idle arenas: room for several concurrent
// requests' pass arenas at one graph size.
const poolCap = 64

// NewPool returns an empty arena pool, safe for concurrent use.
func NewPool() *Pool { return &Pool{} }

// acquire returns the most recently released arena sized for g, or a fresh
// one. A nil pool always allocates.
func (p *Pool) acquire(g *Graph) *arena {
	if p == nil {
		return newArena(g)
	}
	var ar *arena
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if p.free[i].n == g.n {
			ar = p.free[i]
			p.free = slices.Delete(p.free, i, i+1)
			break
		}
	}
	p.mu.Unlock()
	if ar == nil {
		return newArena(g)
	}
	ar.rebind(g)
	return ar
}

// release returns an arena to the pool, evicting the least recently released
// one when the pool is full. A nil pool or arena is a no-op.
func (p *Pool) release(ar *arena) {
	if p == nil || ar == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) == poolCap {
		p.free = slices.Delete(p.free, 0, 1)
	}
	p.free = append(p.free, ar)
	p.mu.Unlock()
}

// rebind points a pooled arena at a new graph of the same capacity. Unlike
// reset — which only cleans member-touched entries because the graph is
// unchanged — rebind wipes every state completely: the previous request's
// graph (weights, clusters) is gone, so nothing incremental can be trusted.
func (a *arena) rebind(g *Graph) {
	if g.n != a.n {
		panic("clique: pool rebind across capacities")
	}
	a.g = g
	for _, s := range a.all {
		s.g = g
		s.members = s.members[:0]
		s.wMembers = s.wMembers[:0]
		for i := range s.sum {
			s.sum[i] = 0
		}
		s.inC.Reset()
		s.cand.Fill()
		s.miss1.Reset()
		if len(g.cluster) == 0 {
			s.byCluster = nil
		} else if len(s.byCluster) >= g.nClusters {
			s.byCluster = s.byCluster[:g.nClusters]
			for i := range s.byCluster {
				s.byCluster[i] = s.byCluster[i][:0]
			}
		} else {
			s.byCluster = make([][]int, g.nClusters)
		}
	}
	a.free = append(a.free[:0], a.all...)
}
