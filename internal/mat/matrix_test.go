package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4, nil)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseData(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected layout: %v", m)
	}
}

func TestNewDensePanics(t *testing.T) {
	mustPanic(t, func() { NewDense(0, 2, nil) })
	mustPanic(t, func() { NewDense(2, 2, []float64{1}) })
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3, nil)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := NewDense(2, 2, nil)
	mustPanic(t, func() { m.At(2, 0) })
	mustPanic(t, func() { m.At(0, -1) })
	mustPanic(t, func() { m.Set(-1, 0, 1) })
}

func TestRawRowAliases(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	m.RawRow(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("RawRow must alias storage")
	}
}

// The tests below check the test-only helpers mul, mulVec, transpose,
// identity and equal (solve_test.go), which the Cholesky and QR tests use
// as their reference algebra.

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := transpose(m)
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims = %d,%d", r, c)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", tr)
	}
}

func TestMul(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := mul(a, b)
	want := NewDense(2, 2, []float64{58, 64, 139, 154})
	if !equal(got, want, 1e-12) {
		t.Fatalf("mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3, nil)
	mustPanic(t, func() { mul(a, a) })
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(4, 4, nil)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	if !equal(mul(a, identity(4)), a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := mulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("mulVec = %v", got)
	}
	mustPanic(t, func() { mulVec(a, []float64{1}) })
}

func TestAddDiag(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	a.AddDiag(10)
	if a.At(0, 0) != 11 || a.At(1, 1) != 14 || a.At(0, 1) != 2 {
		t.Fatalf("AddDiag wrong: %v", a)
	}
}

func TestDotNormSqDist(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := SqDist([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Fatalf("SqDist = %v", got)
	}
	mustPanic(t, func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic(t, func() { SqDist([]float64{1}, []float64{1, 2}) })
}

func TestEqualShapeMismatch(t *testing.T) {
	if equal(NewDense(1, 2, nil), NewDense(2, 1, nil), 1) {
		t.Fatal("equal must reject shape mismatch")
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randomDense(rng, m, k), randomDense(rng, k, n)
		return equal(transpose(mul(a, b)), mul(transpose(b), transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric.
func TestPropDotSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a, b := randomVec(rng, n), randomVec(rng, n)
		return math.Abs(Dot(a, b)-Dot(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c, nil)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
