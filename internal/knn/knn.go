// Package knn implements k-nearest-neighbour regression, the reward
// model used by the CFA scenario's Direct Method (the paper cites
// Larose's k-NN as the DM model for Figure 7c).
//
// Points live in a fixed-dimensional float64 feature space. Queries run
// against a kd-tree for low dimensions and fall back to brute force when
// the tree degenerates (high dimension or tiny datasets). Features can
// be standardized so that heterogeneous units (e.g. RTT in ms next to a
// 0/1 NAT flag) contribute comparably to distances.
package knn

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Metric is a distance function between equal-length feature vectors.
type Metric func(a, b []float64) float64

// Euclidean is the L2 distance.
func Euclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Hamming counts coordinates that differ; it is the natural metric for
// categorical features encoded as small integers.
func Hamming(a, b []float64) float64 {
	n := 0.0
	for i := range a {
		//lint:allow floathygiene Hamming is defined by exact equality of integer-encoded categories
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Options configures a Regressor.
type Options struct {
	// K is the number of neighbours to average (default 5).
	K int
	// Metric is the distance function (default Euclidean).
	Metric Metric
	// Standardize rescales each feature to zero mean / unit variance
	// before building the index and at query time.
	Standardize bool
	// DistanceWeight, when true, weights neighbours by 1/(d+ε) instead
	// of uniformly.
	DistanceWeight bool
}

// Regressor is a fitted k-NN regression model.
type Regressor struct {
	opts   Options
	dim    int
	points [][]float64 // standardized copies
	ys     []float64
	mean   []float64
	scale  []float64
	tree   *kdNode
}

// Fit builds a Regressor from feature rows x and targets y.
func Fit(x [][]float64, y []float64, opts Options) (*Regressor, error) {
	if len(x) == 0 {
		return nil, errors.New("knn: no training data")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("knn: %d rows but %d targets", len(x), len(y))
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, errors.New("knn: zero-dimensional features")
	}
	if opts.K <= 0 {
		opts.K = 5
	}
	if opts.Metric == nil {
		opts.Metric = Euclidean
	}
	r := &Regressor{opts: opts, dim: dim, ys: append([]float64(nil), y...)}
	r.mean = make([]float64, dim)
	r.scale = make([]float64, dim)
	for j := range r.scale {
		r.scale[j] = 1
	}
	if opts.Standardize {
		for _, row := range x {
			if len(row) != dim {
				return nil, fmt.Errorf("knn: inconsistent feature dimension %d vs %d", len(row), dim)
			}
			for j, v := range row {
				r.mean[j] += v
			}
		}
		n := float64(len(x))
		for j := range r.mean {
			r.mean[j] /= n
		}
		for _, row := range x {
			for j, v := range row {
				d := v - r.mean[j]
				r.scale[j] += d * d
			}
		}
		for j := range r.scale {
			r.scale[j] = math.Sqrt(r.scale[j] / n)
			if r.scale[j] < 1e-12 {
				r.scale[j] = 1 // constant feature: leave untouched
			}
		}
	}
	r.points = make([][]float64, len(x))
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("knn: row %d has %d features, want %d", i, len(row), dim)
		}
		r.points[i] = r.transform(row)
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	r.tree = buildKD(r.points, idx, 0)
	return r, nil
}

func (r *Regressor) transform(row []float64) []float64 {
	out := make([]float64, r.dim)
	for j, v := range row {
		out[j] = (v - r.mean[j]) / r.scale[j]
	}
	return out
}

// Len returns the number of training points.
func (r *Regressor) Len() int { return len(r.ys) }

// neighbour is one query result.
type neighbour struct {
	idx  int
	dist float64
}

// Predict returns the (optionally distance-weighted) mean target of the
// K nearest training points.
func (r *Regressor) Predict(x []float64) (float64, error) {
	nbrs, err := r.Neighbors(x, r.opts.K)
	if err != nil {
		return 0, err
	}
	if !r.opts.DistanceWeight {
		s := 0.0
		for _, nb := range nbrs {
			s += r.ys[nb.idx]
		}
		return s / float64(len(nbrs)), nil
	}
	num, den := 0.0, 0.0
	for _, nb := range nbrs {
		w := 1 / (nb.dist + 1e-9)
		num += w * r.ys[nb.idx]
		den += w
	}
	return num / den, nil
}

// Neighbors returns the k nearest training points to x, closest first.
func (r *Regressor) Neighbors(x []float64, k int) ([]neighbour, error) {
	if len(x) != r.dim {
		return nil, fmt.Errorf("knn: query has %d features, want %d", len(x), r.dim)
	}
	if k <= 0 {
		k = r.opts.K
	}
	if k > len(r.points) {
		k = len(r.points)
	}
	q := r.transform(x)
	// The kd-tree prune test assumes a coordinate-difference lower
	// bound, valid for Euclidean. For other metrics use brute force.
	useTree := isEuclidean(r.opts.Metric)
	var h nbrHeap
	if useTree {
		h = make(nbrHeap, 0, k+1)
		r.search(r.tree, q, k, &h)
	} else {
		h = make(nbrHeap, 0, len(r.points))
		for i, p := range r.points {
			h.push(neighbour{idx: i, dist: r.opts.Metric(q, p)}, k)
		}
	}
	out := make([]neighbour, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return out[i].dist < out[j].dist })
	return out, nil
}

func isEuclidean(m Metric) bool {
	// Function pointers cannot be compared portably except against nil;
	// compare behaviourally on probe points.
	probeA := []float64{0, 0}
	probeB := []float64{3, 4}
	//lint:allow floathygiene the probe distance 5 (3-4-5 triangle) is exactly representable
	return m(probeA, probeB) == 5
}

// nbrHeap is a bounded max-heap on distance (the root is the farthest
// kept neighbour).
type nbrHeap []neighbour

func (h *nbrHeap) push(n neighbour, k int) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist >= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
	if len(*h) > k {
		h.popMax()
	}
}

func (h *nbrHeap) popMax() neighbour {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && (*h)[l].dist > (*h)[largest].dist {
			largest = l
		}
		if r < n && (*h)[r].dist > (*h)[largest].dist {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
	return top
}

func (h nbrHeap) maxDist() float64 {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].dist
}

// kdNode is a node of the kd-tree over standardized points.
type kdNode struct {
	idx         int // index into points
	axis        int
	left, right *kdNode
}

func buildKD(points [][]float64, idx []int, depth int) *kdNode {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % len(points[idx[0]])
	sort.Slice(idx, func(i, j int) bool {
		return points[idx[i]][axis] < points[idx[j]][axis]
	})
	mid := len(idx) / 2
	node := &kdNode{idx: idx[mid], axis: axis}
	left := append([]int(nil), idx[:mid]...)
	right := append([]int(nil), idx[mid+1:]...)
	node.left = buildKD(points, left, depth+1)
	node.right = buildKD(points, right, depth+1)
	return node
}

func (r *Regressor) search(node *kdNode, q []float64, k int, h *nbrHeap) {
	if node == nil {
		return
	}
	p := r.points[node.idx]
	d := r.opts.Metric(q, p)
	if len(*h) < k || d < h.maxDist() {
		h.push(neighbour{idx: node.idx, dist: d}, k)
	}
	diff := q[node.axis] - p[node.axis]
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	r.search(near, q, k, h)
	// The axis-distance is a lower bound on the Euclidean distance;
	// prune the far side when it cannot improve.
	if len(*h) < k || math.Abs(diff) < h.maxDist() {
		r.search(far, q, k, h)
	}
}
