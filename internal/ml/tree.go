package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// RegressionTree is a CART regression tree grown by greedy variance
// reduction. It is the weak learner for both the random forest and the
// gradient-boosting ensembles.
type RegressionTree struct {
	// MaxDepth limits tree depth (root at depth 0); <=0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the smallest node size eligible for splitting.
	MinSamplesSplit int
	// MinSamplesLeaf is the smallest allowed leaf size.
	MinSamplesLeaf int
	// MaxFeatures limits the number of features examined per split;
	// <=0 means all features. The forest sets this for decorrelation.
	MaxFeatures int
	// Seed drives the feature-subset sampling.
	Seed int64

	root   *treeNode
	nDims  int
	rng    *rand.Rand
	fitted bool

	// Scratch shared by every node while Fit grows the tree: the (x, y)
	// pairs bestSplit sorts, the right-hand rows grow spills while it
	// partitions idx in place, and the feature-subset permutation.
	pairs []splitPair
	spill []int
	feats []int
}

type splitPair struct{ x, y float64 }

type treeNode struct {
	feature     int // split feature; -1 for leaves
	threshold   float64
	value       float64 // leaf prediction (node mean)
	samples     int
	left, right *treeNode
}

// Name implements Named.
func (t *RegressionTree) Name() string { return "Tree" }

// Fit grows the tree on (X, y).
func (t *RegressionTree) Fit(X [][]float64, y []float64) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if t.MinSamplesSplit < 2 {
		t.MinSamplesSplit = 2
	}
	if t.MinSamplesLeaf < 1 {
		t.MinSamplesLeaf = 1
	}
	t.nDims = d
	t.rng = rand.New(rand.NewSource(t.Seed + 17))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.pairs = make([]splitPair, len(X))
	t.spill = make([]int, len(X))
	t.feats = make([]int, d)
	t.root = t.grow(X, y, idx, 0)
	t.pairs, t.spill, t.feats = nil, nil, nil
	t.fitted = true
	return nil
}

func (t *RegressionTree) grow(X [][]float64, y []float64, idx []int, depth int) *treeNode {
	n := len(idx)
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	node := &treeNode{feature: -1, value: sum / float64(n), samples: n}
	if n < t.MinSamplesSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) {
		return node
	}
	feat, thr, ok := t.bestSplit(X, y, idx)
	if !ok {
		return node
	}
	// Stable in-place partition: left rows compact to the front of idx,
	// right rows go through the spill buffer and follow them, both in
	// their original order. The order matters: it decides how bestSplit's
	// unstable sort arranges tied x values in the children.
	nl, nr := 0, 0
	for _, i := range idx {
		if X[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			t.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], t.spill[:nr])
	left, right := idx[:nl], idx[nl:]
	if len(left) < t.MinSamplesLeaf || len(right) < t.MinSamplesLeaf {
		return node
	}
	node.feature = feat
	node.threshold = thr
	node.left = t.grow(X, y, left, depth+1)
	node.right = t.grow(X, y, right, depth+1)
	return node
}

// bestSplit scans (a subset of) features for the threshold minimizing the
// weighted child sum of squared errors, using the running-sums identity
// SSE = Σy² - (Σy)²/n per side.
func (t *RegressionTree) bestSplit(X [][]float64, y []float64, idx []int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	feats := t.featureSubset()
	pairs := t.pairs[:n]
	bestGain := math.Inf(-1)

	var totSum, totSq float64
	for _, i := range idx {
		totSum += y[i]
		totSq += y[i] * y[i]
	}
	parentSSE := totSq - totSum*totSum/float64(n)

	for _, f := range feats {
		x0 := X[idx[0]][f]
		constant := true
		for k, i := range idx {
			x := X[i][f]
			constant = constant && x == x0
			pairs[k] = splitPair{x, y[i]}
		}
		if constant {
			continue // no threshold separates equal values
		}
		// Same pdqsort template and less as sort.Slice, hence the same
		// permutation, without reflection or per-call allocation.
		slices.SortFunc(pairs, cmpSplitX)
		var lSum, lSq float64
		for k := 0; k < n-1; k++ {
			lSum += pairs[k].y
			lSq += pairs[k].y * pairs[k].y
			if pairs[k].x == pairs[k+1].x {
				continue // cannot split between equal values
			}
			nl, nr := float64(k+1), float64(n-k-1)
			if int(nl) < t.MinSamplesLeaf || int(nr) < t.MinSamplesLeaf {
				continue
			}
			rSum := totSum - lSum
			rSq := totSq - lSq
			sse := (lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr)
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (pairs[k].x + pairs[k+1].x) / 2
				ok = true
			}
		}
	}
	if bestGain <= 1e-12 {
		return 0, 0, false
	}
	return feature, threshold, ok
}

// cmpSplitX orders pairs by x; its "less" (cmp < 0) is exactly x < x'.
func cmpSplitX(a, b splitPair) int {
	switch {
	case a.x < b.x:
		return -1
	case a.x > b.x:
		return 1
	}
	return 0
}

func (t *RegressionTree) featureSubset() []int {
	all := t.feats
	for i := range all {
		all[i] = i
	}
	if t.MaxFeatures <= 0 || t.MaxFeatures >= t.nDims {
		return all
	}
	t.rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all[:t.MaxFeatures]
}

// Predict descends the tree to a leaf mean.
func (t *RegressionTree) Predict(x []float64) float64 {
	if !t.fitted {
		panic(ErrNotFitted)
	}
	if len(x) != t.nDims {
		panic(fmt.Sprintf("ml: tree expects %d features, got %d", t.nDims, len(x)))
	}
	n := t.root
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the height of the fitted tree (leaf-only tree has depth 0).
func (t *RegressionTree) Depth() int {
	if !t.fitted {
		return 0
	}
	return nodeDepth(t.root)
}

// LeafCount returns the number of leaves in the fitted tree.
func (t *RegressionTree) LeafCount() int {
	if !t.fitted {
		return 0
	}
	return countLeaves(t.root)
}

func nodeDepth(n *treeNode) int {
	if n.feature < 0 {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func countLeaves(n *treeNode) int {
	if n.feature < 0 {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}
