// Package gen generates the graph families used in the paper's
// evaluation (§IV): Erdős–Rényi random graphs, scale-free graphs with a
// tunable preferential-attachment weighting, and Watts–Strogatz
// small-world graphs — plus deterministic and auxiliary families used by
// tests, examples, and ablations.
//
// The paper generated its inputs with the iGraph Ruby bindings; these
// native generators are the documented substitution (see DESIGN.md):
// only the degree distribution and topology matter to the algorithms.
//
// All generators are deterministic functions of an *rng.Rand stream.
package gen

import (
	"fmt"
	"math"

	"dima/internal/graph"
	"dima/internal/rng"
)

// ErdosRenyiGNP returns a G(n, p) random graph: every unordered pair is
// an edge independently with probability p. Uses geometric skip-sampling,
// so the cost is proportional to the number of edges generated.
func ErdosRenyiGNP(r *rng.Rand, n int, p float64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative n %d", n)
	}
	// Range checks on floats are negated so that NaN, which fails
	// every comparison, fails the check too.
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("gen: probability %v out of [0,1]", p)
	}
	g := graph.New(n)
	if p == 0 || n < 2 {
		return g, nil
	}
	total := n * (n - 1) / 2
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.MustAddEdge(u, v)
			}
		}
		return g, nil
	}
	// Walk the linearized pair index with geometric jumps. The index only
	// grows, so a row cursor follows it instead of re-deriving the row
	// from 0 for every edge: O(n + m) rather than O(n·m).
	idx := -1
	cur := pairCursor{rowLen: n - 1}
	for {
		idx += r.Geometric(p)
		if idx >= total {
			return g, nil
		}
		u, v := cur.pair(idx)
		g.MustAddEdge(u, v)
	}
}

// pairCursor maps a non-decreasing sequence of linear pair indices to
// pairs, the incremental form of pairFromIndex: row u of the upper
// triangle starts at index rowStart and holds rowLen pairs. Start it at
// pairCursor{rowLen: n - 1}.
type pairCursor struct {
	u, rowStart, rowLen int
}

// pair returns pairFromIndex(idx, n); idx must not be smaller than the
// previous call's.
func (c *pairCursor) pair(idx int) (int, int) {
	for idx-c.rowStart >= c.rowLen {
		c.rowStart += c.rowLen
		c.u++
		c.rowLen--
	}
	return c.u, c.u + 1 + idx - c.rowStart
}

// pairFromIndex maps a linear index in [0, n(n-1)/2) to the unordered
// pair (u, v), u < v, in row-major order of the upper triangle.
func pairFromIndex(idx, n int) (int, int) {
	// Row u contributes n-1-u pairs. Solve for u by accumulation; the
	// closed form with floats risks off-by-one at large n, so use the
	// exact integer inversion.
	u := 0
	rem := idx
	rowLen := n - 1
	for rem >= rowLen {
		rem -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + rem
}

// ErdosRenyiGNM returns a uniform random graph with exactly m edges.
func ErdosRenyiGNM(r *rng.Rand, n, m int) (*graph.Graph, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("gen: negative parameter n=%d m=%d", n, m)
	}
	total := n * (n - 1) / 2
	if m > total {
		return nil, fmt.Errorf("gen: m=%d exceeds max %d for n=%d", m, total, n)
	}
	g := graph.New(n)
	if m == 0 {
		return g, nil
	}
	if m > total/2 {
		// Dense case: sample which pairs to EXCLUDE via a partial
		// Fisher–Yates over the pair indices.
		return denseGNM(r, n, m, total)
	}
	for g.M() < m {
		idx := r.Intn(total)
		u, v := pairFromIndex(idx, n)
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g, nil
}

func denseGNM(r *rng.Rand, n, m, total int) (*graph.Graph, error) {
	excluded := make(map[int]bool, total-m)
	for len(excluded) < total-m {
		excluded[r.Intn(total)] = true
	}
	g := graph.New(n)
	for idx := 0; idx < total; idx++ {
		if !excluded[idx] {
			u, v := pairFromIndex(idx, n)
			g.MustAddEdge(u, v)
		}
	}
	return g, nil
}

// ErdosRenyiAvgDegree returns a G(n, p) graph with p chosen so the
// expected average degree is avgDeg — the parameterization used in the
// paper's experiments (n ∈ {200,400}, average degree ∈ {4,8,16}).
func ErdosRenyiAvgDegree(r *rng.Rand, n int, avgDeg float64) (*graph.Graph, error) {
	if n < 2 {
		return graph.New(max(n, 0)), nil
	}
	if !(avgDeg >= 0 && avgDeg <= float64(n-1)) {
		return nil, fmt.Errorf("gen: average degree %v out of [0,%d]", avgDeg, n-1)
	}
	return ErdosRenyiGNP(r, n, avgDeg/float64(n-1))
}

// BarabasiAlbert returns a scale-free graph on n vertices grown by
// preferential attachment: each new vertex attaches k edges to existing
// vertices chosen with probability proportional to degree^power.
// power = 1 is classic Barabási–Albert; larger powers create the
// "increasingly disparate" graphs of §IV-B (heavier hubs, larger Δ),
// power = 0 degenerates to uniform attachment.
func BarabasiAlbert(r *rng.Rand, n, k int, power float64) (*graph.Graph, error) {
	if n < 0 || k < 1 {
		return nil, fmt.Errorf("gen: invalid scale-free parameters n=%d k=%d", n, k)
	}
	if !(power >= 0) {
		return nil, fmt.Errorf("gen: negative attachment power %v", power)
	}
	g := graph.New(n)
	if n == 0 {
		return g, nil
	}
	seed := k + 1
	if seed > n {
		seed = n
	}
	// Seed clique so early attachments have targets with degree > 0.
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			g.MustAddEdge(u, v)
		}
	}
	weights := make([]float64, n)
	var totalW float64
	// recompute sets the roulette weights to (degree/scale)^power.
	// Dividing by scale = 1 is exact, so runs whose degree^power sum
	// stays finite draw the same graphs as unscaled weights. When that
	// sum overflows to +Inf the wheel would stop on NaN and fall back to
	// the last candidate every time, so the weights are rescaled by the
	// max degree: the same proportions, with the hubs at weight 1.
	recompute := func() {
		for _, scale := range []float64{1, float64(g.MaxDegree())} {
			totalW = 0
			for u := 0; u < n; u++ {
				if d := g.Degree(u); d > 0 {
					weights[u] = math.Pow(float64(d)/scale, power)
				} else {
					weights[u] = 0
				}
				totalW += weights[u]
			}
			if !math.IsInf(totalW, 1) {
				return
			}
		}
	}
	recompute()
	for u := seed; u < n; u++ {
		attached := make(map[int]bool, k)
		tries := 0
		for len(attached) < k && len(attached) < u {
			// Roulette-wheel selection over current weights.
			x := r.Float64() * totalW
			target := -1
			for v := 0; v < u; v++ {
				x -= weights[v]
				if x < 0 {
					target = v
					break
				}
			}
			if target < 0 {
				target = u - 1 // float round-off: take the last candidate
			}
			tries++
			if tries > 50*k && len(attached) > 0 {
				break // pathological weight concentration; accept fewer edges
			}
			if attached[target] {
				continue
			}
			attached[target] = true
			g.MustAddEdge(u, target)
		}
		recompute()
	}
	return g, nil
}

// WattsStrogatz returns a small-world graph on n vertices: a ring lattice
// where each vertex connects to its k nearest neighbors on each side,
// with each lattice edge rewired with probability beta. §IV-C uses
// sparse (small k) and dense (large k) variants at n ∈ {16, 64, 256}.
func WattsStrogatz(r *rng.Rand, n, k int, beta float64) (*graph.Graph, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("gen: invalid small-world parameters n=%d k=%d", n, k)
	}
	if 2*k >= n && n > 0 {
		return nil, fmt.Errorf("gen: lattice degree 2k=%d must be < n=%d", 2*k, n)
	}
	if !(beta >= 0 && beta <= 1) {
		return nil, fmt.Errorf("gen: rewire probability %v out of [0,1]", beta)
	}
	g := graph.New(n)
	if n == 0 || k == 0 {
		return g, nil
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if r.Float64() < beta {
				// Rewire: keep u, choose a uniform new endpoint avoiding
				// self-loops and duplicates. Give up after bounded tries
				// (dense lattices can saturate a vertex) and keep the
				// lattice edge instead.
				rewired := false
				for try := 0; try < 4*n; try++ {
					w := r.Intn(n)
					if w != u && !g.HasEdge(u, w) {
						g.MustAddEdge(u, w)
						rewired = true
						break
					}
				}
				if !rewired && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v)
				}
			} else if !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g, nil
}

// RandomRegular returns a (near-)uniform random d-regular graph on n
// vertices via the configuration (pairing) model with restarts on
// collisions. n*d must be even and d < n.
func RandomRegular(r *rng.Rand, n, d int) (*graph.Graph, error) {
	if n < 0 || d < 0 || d >= n && n > 0 {
		return nil, fmt.Errorf("gen: invalid regular parameters n=%d d=%d", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d = %d must be even", n*d)
	}
	if d == 0 || n == 0 {
		return graph.New(n), nil
	}
	const maxRestarts = 20000
	for restart := 0; restart < maxRestarts; restart++ {
		g, ok := tryPairing(r, n, d)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: pairing model failed after %d restarts (n=%d d=%d)", maxRestarts, n, d)
}

func tryPairing(r *rng.Rand, n, d int) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for j := 0; j < d; j++ {
			stubs = append(stubs, u)
		}
	}
	r.ShuffleInts(stubs)
	g := graph.New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		g.MustAddEdge(u, v)
	}
	return g, true
}

// ConfigurationModel returns a random simple graph whose degree
// sequence matches degrees exactly, via the pairing model with restarts
// (like RandomRegular, of which this is the general form). The degree
// sum must be even, each degree must be < n, and sufficiently skewed
// sequences may be rejected as unrealizable after repeated restarts.
func ConfigurationModel(r *rng.Rand, degrees []int) (*graph.Graph, error) {
	n := len(degrees)
	sum := 0
	for v, d := range degrees {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("gen: degree %d at vertex %d out of range [0,%d)", d, v, n)
		}
		sum += d
	}
	if sum%2 != 0 {
		return nil, fmt.Errorf("gen: degree sum %d must be even", sum)
	}
	if sum == 0 {
		return graph.New(n), nil
	}
	const maxRestarts = 20000
	stubs := make([]int, 0, sum)
	for restart := 0; restart < maxRestarts; restart++ {
		stubs = stubs[:0]
		for v, d := range degrees {
			for j := 0; j < d; j++ {
				stubs = append(stubs, v)
			}
		}
		r.ShuffleInts(stubs)
		g := graph.New(n)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) {
				ok = false
				break
			}
			g.MustAddEdge(u, v)
		}
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: configuration model failed after %d restarts (sequence may be unrealizable)", maxRestarts)
}

// PowerLawDegrees samples n degrees from a truncated discrete power law
// P(d) proportional to d^(-gamma) over [minDeg, maxDeg], adjusting the
// last vertex by one if needed to make the sum even (a standard
// configuration-model input). gamma must be > 1.
func PowerLawDegrees(r *rng.Rand, n, minDeg, maxDeg int, gamma float64) ([]int, error) {
	if n < 0 || minDeg < 1 || maxDeg < minDeg || (maxDeg >= n && n > 0) {
		return nil, fmt.Errorf("gen: invalid power-law parameters n=%d range=[%d,%d]", n, minDeg, maxDeg)
	}
	if !(gamma > 1) {
		return nil, fmt.Errorf("gen: power-law exponent %v must be > 1", gamma)
	}
	weights := make([]float64, maxDeg-minDeg+1)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(minDeg+i), -gamma)
		total += weights[i]
	}
	degrees := make([]int, n)
	sum := 0
	for v := range degrees {
		x := r.Float64() * total
		d := maxDeg
		for i, w := range weights {
			x -= w
			if x < 0 {
				d = minDeg + i
				break
			}
		}
		degrees[v] = d
		sum += d
	}
	if sum%2 != 0 {
		if degrees[n-1] < maxDeg {
			degrees[n-1]++
		} else {
			degrees[n-1]--
		}
	}
	return degrees, nil
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// Cycle returns the cycle C_n (n >= 3); smaller n yields a path/empty.
func Cycle(n int) *graph.Graph {
	g := Path(n)
	if n >= 3 {
		g.MustAddEdge(n-1, 0)
	}
	return g
}

// Path returns the path P_n on n vertices.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(u, u+1)
	}
	return g
}

// Star returns the star K_{1,n-1} centered at vertex 0.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v)
	}
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic("gen: negative grid dimensions")
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Hypercube returns the dim-dimensional hypercube Q_dim (2^dim vertices).
func Hypercube(dim int) *graph.Graph {
	if dim < 0 || dim > 30 {
		panic("gen: hypercube dimension out of range")
	}
	n := 1 << dim
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// RandomTree returns a uniform random labeled tree on n vertices via a
// random Prüfer sequence.
func RandomTree(r *rng.Rand, n int) *graph.Graph {
	g := graph.New(n)
	if n < 2 {
		return g
	}
	if n == 2 {
		g.MustAddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for i := range prufer {
		prufer[i] = r.Intn(n)
		deg[prufer[i]]++
	}
	// Decode with a simple leaf scan (O(n^2), fine at simulator scales).
	used := make([]bool, n)
	for _, p := range prufer {
		leaf := -1
		for v := 0; v < n; v++ {
			if deg[v] == 1 && !used[v] {
				leaf = v
				break
			}
		}
		g.MustAddEdge(leaf, p)
		used[leaf] = true
		deg[leaf]--
		deg[p]--
	}
	// Connect the two remaining degree-1 vertices.
	first := -1
	for v := 0; v < n; v++ {
		if deg[v] == 1 && !used[v] {
			if first < 0 {
				first = v
			} else {
				g.MustAddEdge(first, v)
				break
			}
		}
	}
	return g
}

// RandomBipartite returns a random bipartite graph with parts of size
// left and right, each cross pair an edge with probability p.
func RandomBipartite(r *rng.Rand, left, right int, p float64) (*graph.Graph, error) {
	if left < 0 || right < 0 {
		return nil, fmt.Errorf("gen: negative part sizes %d,%d", left, right)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("gen: probability %v out of [0,1]", p)
	}
	g := graph.New(left + right)
	for u := 0; u < left; u++ {
		for v := 0; v < right; v++ {
			if r.Float64() < p {
				g.MustAddEdge(u, left+v)
			}
		}
	}
	return g, nil
}

// RandomGeometric returns a random geometric graph (unit-disk graph):
// n points uniform in the unit square, edges between pairs within
// distance radius. UDGs model wireless interference topologies — the
// application domain of strong edge coloring (Barrett et al.; Kanj et
// al., both cited by the paper).
func RandomGeometric(r *rng.Rand, n int, radius float64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative n %d", n)
	}
	if !(radius >= 0) {
		return nil, fmt.Errorf("gen: negative radius %v", radius)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	g := graph.New(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
