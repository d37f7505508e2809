package collective

import "math"

// Op is a commutative, associative elementwise reduction operator. It folds
// src into acc (both same length).
type Op func(acc, src []float64)

// Sum adds src into acc.
func Sum(acc, src []float64) {
	for i := range acc {
		acc[i] += src[i]
	}
}

// Max keeps the elementwise maximum.
func Max(acc, src []float64) {
	for i := range acc {
		acc[i] = math.Max(acc[i], src[i])
	}
}

// Min keeps the elementwise minimum.
func Min(acc, src []float64) {
	for i := range acc {
		acc[i] = math.Min(acc[i], src[i])
	}
}
