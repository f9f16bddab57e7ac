package ml

import (
	"fmt"
	"math"
	"math/rand"

	"graphdse/internal/mat"
)

// SVR is ε-insensitive support vector regression trained by an SMO-style
// pairwise coordinate-ascent solver on the dual problem
//
//	max_β  -½ Σᵢⱼ βᵢβⱼK(xᵢ,xⱼ) - ε Σᵢ|βᵢ| + Σᵢ yᵢβᵢ
//	s.t.   Σᵢ βᵢ = 0,  |βᵢ| ≤ C,
//
// where βᵢ = αᵢ - αᵢ* collapses the classic two-variable-per-sample
// formulation (Smola & Schölkopf). Each step optimizes a pair (βᵢ, βⱼ)
// exactly, keeping their sum constant, by maximizing the piecewise-quadratic
// restricted objective over its breakpoints.
type SVR struct {
	// C bounds |βᵢ|; larger C fits the training data harder.
	C float64
	// Epsilon is the insensitive-tube half width.
	Epsilon float64
	// Kernel defaults to RBF with gamma chosen as 1/(d·Var(X)) ("scale"),
	// which Fit stores here and re-derives from the data on every Fit. A
	// kernel the caller sets is kept across fits.
	Kernel Kernel
	// Tol is the convergence threshold on the per-sweep maximum β change.
	Tol float64
	// MaxIter caps the number of full sweeps.
	MaxIter int
	// Seed controls the sweep order shuffle.
	Seed int64

	// Fitted state: support vectors, their coefficients, and the bias.
	SupportX [][]float64
	Beta     []float64
	B        float64
	// Iters records how many sweeps the solver used.
	Iters  int
	fitted bool
	// autoKernel is the kernel Fit last chose itself, which tells a
	// refit whether Kernel still holds that default or the caller's own.
	autoKernel Kernel
}

// NewSVR returns an SVR with defaults suitable for min-max-scaled data.
func NewSVR() *SVR {
	return &SVR{C: 100, Epsilon: 0.01, Tol: 1e-5, MaxIter: 400}
}

// Name implements Named.
func (s *SVR) Name() string { return "SVM" }

// Fit trains the model.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if s.C <= 0 {
		return fmt.Errorf("%w: C must be positive, got %v", ErrBadInput, s.C)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("%w: negative epsilon %v", ErrBadInput, s.Epsilon)
	}
	if s.Tol <= 0 {
		s.Tol = 1e-5
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 400
	}
	if s.Kernel == nil || s.Kernel == s.autoKernel {
		s.autoKernel = RBFKernel{Gamma: scaleGamma(X, d)}
		s.Kernel = s.autoKernel
	}
	n := len(X)
	gram := gramMatrix(s.Kernel, X)
	beta := make([]float64, n)
	f := make([]float64, n) // f_i = Σ_k β_k K_ik (bias excluded)
	rng := rand.New(rand.NewSource(s.Seed + 1))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	s.Iters = 0
	for iter := 0; iter < s.MaxIter; iter++ {
		s.Iters = iter + 1
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		var maxDelta float64
		for _, i := range order {
			j := s.selectPartner(i, y, f)
			if j == i {
				continue
			}
			delta := s.optimizePair(i, j, gram, y, beta, f)
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		if maxDelta < s.Tol {
			break
		}
	}

	s.B = computeBias(beta, y, f, s.Epsilon, s.C)

	// Keep only support vectors, copied into one backing array.
	nSV := 0
	for _, b := range beta {
		if math.Abs(b) > 1e-10 {
			nSV++
		}
	}
	sv := make([]float64, 0, nSV*d)
	s.SupportX = make([][]float64, 0, nSV)
	s.Beta = make([]float64, 0, nSV)
	for i, b := range beta {
		if math.Abs(b) > 1e-10 {
			sv = append(sv, X[i]...)
			s.SupportX = append(s.SupportX, sv[len(sv)-d:len(sv):len(sv)])
			s.Beta = append(s.Beta, b)
		}
	}
	s.fitted = true
	return nil
}

// selectPartner picks the j maximizing the residual gap |F_i - F_j|, the
// standard maximal-violating-pair heuristic; ties keep the first j. It
// scans the rows before and after i separately, in index order.
func (s *SVR) selectPartner(i int, y, f []float64) int {
	y = y[:len(f)]
	fi := y[i] - f[i]
	best, bestGap := scanGap(fi, y[:i], f[:i], 0, i, -1)
	best, _ = scanGap(fi, y[i+1:], f[i+1:], i+1, best, bestGap)
	return best
}

// scanGap continues an argmax of |fi - (y[j]-f[j])| over one row range
// starting at index off, keeping the first strict maximum.
func scanGap(fi float64, y, f []float64, off, best int, bestGap float64) (int, float64) {
	y = y[:len(f)]
	for j, fj := range f {
		if gap := math.Abs(fi - (y[j] - fj)); gap > bestGap {
			bestGap, best = gap, off+j
		}
	}
	return best, bestGap
}

// optimizePair exactly maximizes the dual restricted to (βᵢ, βⱼ) with
// βᵢ+βⱼ fixed, and returns |Δβᵢ|. It reads the Gram matrix through rows i
// and j only and allocates nothing.
func (s *SVR) optimizePair(i, j int, gram *mat.Dense, y, beta, f []float64) float64 {
	gi, gj := gram.RawRow(i), gram.RawRow(j)
	kii := gi[i]
	kjj := gj[j]
	kij := gi[j]
	eta := kii + kjj - 2*kij
	bi, bj := beta[i], beta[j]
	sum := bi + bj
	lo := math.Max(-s.C, sum-s.C)
	hi := math.Min(s.C, sum+s.C)
	if hi-lo < 1e-15 {
		return 0
	}
	// Contribution of all other points (and self terms removed).
	ri := f[i] - bi*kii - bj*kij
	rj := f[j] - bi*kij - bj*kjj
	yi, yj, eps := y[i], y[j], s.Epsilon

	// Restricted objective (constant terms dropped).
	obj := func(t float64) float64 {
		u := sum - t
		return -0.5*(kii*t*t+kjj*u*u+2*kij*t*u) -
			eps*(math.Abs(t)+math.Abs(u)) +
			yi*t + yj*u - t*ri - u*rj
	}

	// Candidate points: breakpoints of the piecewise-quadratic plus the
	// stationary point of each sign region (at most 2+1+1+4).
	var buf [8]float64
	cands := append(buf[:0], lo, hi)
	if lo < 0 && 0 < hi {
		cands = append(cands, 0)
	}
	if lo < sum && sum < hi {
		cands = append(cands, sum)
	}
	if eta > 1e-14 {
		base := (kjj-kij)*sum + (yi - yj) - (ri - rj)
		for _, sg := range [...][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
			t := (base - eps*(sg[0]-sg[1])) / eta
			// Clip into the global box; region validity is handled by the
			// exact objective comparison.
			if t < lo {
				t = lo
			}
			if t > hi {
				t = hi
			}
			cands = append(cands, t)
		}
	}
	bestT, bestV := bi, obj(bi)
	for _, t := range cands {
		if v := obj(t); v > bestV+1e-15 {
			bestV, bestT = v, t
		}
	}
	dI := bestT - bi
	if math.Abs(dI) < 1e-14 {
		return 0
	}
	dJ := (sum - bestT) - bj
	beta[i] = bestT
	beta[j] = sum - bestT
	gi, gj = gi[:len(f)], gj[:len(f)]
	for k := range f {
		f[k] += dI*gi[k] + dJ*gj[k]
	}
	return math.Abs(dI)
}

// computeBias derives b from the KKT conditions: free positive βᵢ give
// b = Fᵢ-ε, free negative give b = Fᵢ+ε; otherwise b is the midpoint of the
// feasible interval implied by the bound constraints.
func computeBias(beta, y, f []float64, eps, c float64) float64 {
	var sum float64
	var cnt int
	loB, hiB := math.Inf(-1), math.Inf(1)
	for i, b := range beta {
		fi := y[i] - f[i]
		switch {
		case b > 1e-10 && b < c-1e-10:
			sum += fi - eps
			cnt++
		case b < -1e-10 && b > -c+1e-10:
			sum += fi + eps
			cnt++
		case math.Abs(b) <= 1e-10:
			if fi-eps > loB {
				loB = fi - eps
			}
			if fi+eps < hiB {
				hiB = fi + eps
			}
		case b >= c-1e-10:
			if fi-eps < hiB {
				hiB = fi - eps
			}
		case b <= -c+1e-10:
			if fi+eps > loB {
				loB = fi + eps
			}
		}
	}
	if cnt > 0 {
		return sum / float64(cnt)
	}
	if !math.IsInf(loB, -1) && !math.IsInf(hiB, 1) {
		return (loB + hiB) / 2
	}
	return mat.Mean(y)
}

// Predict returns Σᵢ βᵢ K(svᵢ, x) + b.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		panic(ErrNotFitted)
	}
	out := s.B
	for i, sv := range s.SupportX {
		out += s.Beta[i] * s.Kernel.Eval(sv, x)
	}
	return out
}

// NumSupportVectors reports the size of the fitted support set.
func (s *SVR) NumSupportVectors() int { return len(s.Beta) }

// scaleGamma mirrors scikit-learn's gamma="scale": 1/(d · Var(X)) over all
// entries of X.
func scaleGamma(X [][]float64, d int) float64 {
	var all []float64
	for _, row := range X {
		all = append(all, row...)
	}
	v := mat.Variance(all)
	if v <= 0 {
		return 1
	}
	return 1 / (float64(d) * v)
}
