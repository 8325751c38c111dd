package stats

import (
	"math"
	"sync"
)

// logTableSize bounds the cached natural logarithms: Log(n) for n below it
// comes from one process-wide table (512 KiB), built on first use and only
// read afterwards, so concurrent generators share it without locking.
const logTableSize = 1 << 16

var logTable = sync.OnceValue(func() []float64 {
	t := make([]float64, logTableSize)
	for n := 1; n < logTableSize; n++ {
		t[n] = math.Log(float64(n))
	}
	return t
})

// LogUniformAge draws an age in [1, n] with P(age) ∝ 1/age from a uniform
// u in [0, 1): it returns int(math.Pow(float64(n), u)), bit for bit, for
// every n >= 1. The generators' recency-biased input picks call it once per
// input, where math.Pow's general special-case ladder cost half of the
// stream's generation time.
//
//optchain:hotpath one call per generated input.
func LogUniformAge(n int, u float64) int {
	return int(logUniformPow(n, u))
}

// logUniformPow is math.Pow(float64(n), u) for n >= 1 and 0 <= u < 1,
// following the four cases Go's pow reduces to over that domain: 1 for
// u == 0 or n == 1, Sqrt at u == 0.5, and otherwise Exp(u·Log(n)) with
// u > 0.5 taken as Exp((u-1)·Log(n))·n. Pow writes that last product as
// Ldexp(a·m, e) with n = m·2^e; scaling by 2^e is exact, so it is a·n.
// Only Log(n) is cached; Exp is the math package's own.
func logUniformPow(n int, u float64) float64 {
	x := float64(n)
	switch {
	case u == 0 || n == 1:
		return 1
	case u == 0.5:
		return math.Sqrt(x)
	}
	var l float64
	if n < logTableSize {
		l = logTable()[n]
	} else {
		l = math.Log(x)
	}
	if u > 0.5 {
		return math.Exp((u-1)*l) * x
	}
	return math.Exp(u * l)
}
