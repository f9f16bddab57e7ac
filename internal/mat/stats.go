package mat

// Mean returns the arithmetic mean of v, or 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 for fewer than two
// elements.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}
