package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// defaultSeed is the seed every figure in README.md was tuned on;
// heldOutSeed is never tuned against, and a claimed gain must also hold
// on it.  golden.json holds the job digests of seeds 1..digestSeeds.
const (
	defaultSeed = 1
	heldOutSeed = 7
	digestSeeds = 10
)

// jobSource returns the mini-C program of daemon job i under seed.  The
// literal in main embeds seed and i, so every job is distinct and the
// daemon's result cache never answers.  Programs have branches,
// loops, calls and recursion.  Their length in traced instructions is
// spread log-uniformly over about 10^3..10^5.  The size quantile of job
// i follows a low-discrepancy sequence, so any window of jobs, under
// any seed, has nearly the same size mix and only the code varies.
func jobSource(seed int64, i int64) string {
	r := rand.New(rand.NewSource(seed*1_000_003 + i))
	const phi = 0.6180339887498949
	u := math.Mod(float64(i)*phi+float64(seed)*0.7548776662466927, 1)
	target := math.Exp(math.Log(1e3) + u*(math.Log(1e5)-math.Log(1e3)))

	mask := []int{3, 7, 15, 31}[r.Intn(4)]
	inner := r.Intn(6)
	depth := 2 + r.Intn(6)
	div := []int{3, 5, 7, 11}[r.Intn(4)]
	// About 40 instructions per outer iteration plus the inner loop, the
	// recursion every 16th iteration and the calls' bodies.
	perIter := 45 + 6*inner + (8*depth)/16
	iters := int(target)/perIter + 1

	var b strings.Builder
	fmt.Fprintf(&b, "int a[64];\n")
	fmt.Fprintf(&b, "int h(int x) {\n\tif ((x & %d) == %d) return x * %d + %d;\n\treturn (x ^ %d) + (x >> %d);\n}\n",
		mask, r.Intn(mask+1), 3+r.Intn(13), r.Intn(1000), r.Intn(1<<12), 1+r.Intn(4))
	fmt.Fprintf(&b, "int g(int x, int y) {\n\tint t;\n\tt = h(x) + y;\n\tif (t > y) t = t - y; else t = t + %d;\n\treturn t & 4095;\n}\n",
		1+r.Intn(97))
	fmt.Fprintf(&b, "int rec(int n) {\n\tif (n <= 1) return 1;\n\treturn rec(n - 1) + (n & 3);\n}\n")
	fmt.Fprintf(&b, "int main() {\n\tint i, j, s, u;\n\ts = %d;\n", seed*10_000_000+i)
	fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i++) {\n", iters)
	fmt.Fprintf(&b, "\t\tu = g(i, s);\n")
	if r.Intn(2) == 0 {
		fmt.Fprintf(&b, "\t\tif (u %% %d == 0) s += a[u & 63];\n\t\telse { a[(i + s) & 63] = u; s = s ^ u; }\n", div)
	} else {
		fmt.Fprintf(&b, "\t\twhile (u > %d) u = u / %d;\n\t\ta[(u + i) & 63] += s & 255;\n\t\ts = s + u;\n", 64+r.Intn(64), div)
	}
	fmt.Fprintf(&b, "\t\tfor (j = 0; j < %d; j++) s += a[(j + i) & 63] * %d;\n", inner, 1+r.Intn(9))
	fmt.Fprintf(&b, "\t\tif ((i & 15) == 0) s += rec(%d);\n", depth)
	fmt.Fprintf(&b, "\t\ts = s & 1048575;\n\t}\n\tprint(s);\n\treturn 0;\n}\n")
	return b.String()
}
