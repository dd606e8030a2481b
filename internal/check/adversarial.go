package check

import (
	"math"
	"math/rand"
)

// adversarialData is the bounded data-plane search for topologies whose
// exact case count is out of reach: greedy grows one fault set, then seeded
// random restarts (each polished by a one-pass swap hill-climb) probe fault
// sets the greedy's myopia misses. Any violation it reports is a real,
// fully evaluated fault case; an OK is evidence, not a proof — the
// Certificate carries Exact=false. evalCase evaluates one case given its
// failed candidate links and switches.
func (c *checker) adversarialData(rng *rand.Rand, evalCase func(physSel, swSel []int) caseResult) searchResult {
	res := searchResult{slack: math.Inf(1), slackLink: -1}
	ke, kv := c.p.Prot.Ke, c.p.Prot.Kv
	eval := func(physSel, swSel []int) (caseResult, bool) {
		cr := evalCase(physSel, swSel)
		return cr, c.note(&res, cr, physSel, swSel)
	}
	curP, curS, cont := c.greedy(eval)
	if !cont {
		return res
	}

	// Random restarts: sample a maximal fault set, then one swap pass per
	// element trying a few random replacements, keeping improvements.
	for r := 0; r < c.p.Restarts; r++ {
		curP = sampleInto(curP[:0], c.activeP, ke, rng)
		curS = sampleInto(curS[:0], c.activeS, kv, rng)
		cr, cont := eval(curP, curS)
		if !cont {
			return res
		}
		best := cr.slack
		for i := range curP {
			for try := 0; try < 3 && len(c.activeP) > len(curP); try++ {
				alt := c.activeP[rng.Intn(len(c.activeP))]
				if containsInt(curP, alt) {
					continue
				}
				old := curP[i]
				curP[i] = alt
				cr, cont := eval(curP, curS)
				if !cont {
					return res
				}
				if cr.slack < best {
					best = cr.slack
				} else {
					curP[i] = old
				}
			}
		}
		for i := range curS {
			for try := 0; try < 3 && len(c.activeS) > len(curS); try++ {
				alt := c.activeS[rng.Intn(len(c.activeS))]
				if containsInt(curS, alt) {
					continue
				}
				old := curS[i]
				curS[i] = alt
				cr, cont := eval(curP, curS)
				if !cont {
					return res
				}
				if cr.slack < best {
					best = cr.slack
				} else {
					curS[i] = old
				}
			}
		}
	}
	return res
}

// greedy evaluates the no-fault case, then grows one fault set by
// repeatedly failing whichever single additional active element leaves the
// worst residual slack, up to ke links and kv switches. It passes every
// case to eval, stopping when eval returns false, and returns the grown set
// and whether it ran to its end. eval's slices are reused.
func (c *checker) greedy(eval func(physSel, swSel []int) (caseResult, bool)) ([]int, []int, bool) {
	ke, kv := c.p.Prot.Ke, c.p.Prot.Kv
	curP, curS := make([]int, 0, ke), make([]int, 0, kv)
	if _, cont := eval(curP, curS); !cont {
		return curP, curS, false
	}
	inP := make([]bool, len(c.phys))
	inS := make([]bool, len(c.sws))
	for len(curP) < min(ke, len(c.activeP)) || len(curS) < min(kv, len(c.activeS)) {
		bestSlack := math.Inf(1)
		bestIdx, bestIsSwitch := -1, false
		if len(curP) < ke {
			for _, pi := range c.activeP {
				if inP[pi] {
					continue
				}
				cr, cont := eval(append(curP, pi), curS)
				if !cont {
					return curP, curS, false
				}
				if cr.slack < bestSlack {
					bestSlack, bestIdx, bestIsSwitch = cr.slack, pi, false
				}
			}
		}
		if len(curS) < kv {
			for _, si := range c.activeS {
				if inS[si] {
					continue
				}
				cr, cont := eval(curP, append(curS, si))
				if !cont {
					return curP, curS, false
				}
				if cr.slack < bestSlack {
					bestSlack, bestIdx, bestIsSwitch = cr.slack, si, true
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		if bestIsSwitch {
			curS = append(curS, bestIdx)
			inS[bestIdx] = true
		} else {
			curP = append(curP, bestIdx)
			inP[bestIdx] = true
		}
	}
	return curP, curS, true
}

// sampleInto fills dst with up to k distinct elements of pool, uniformly.
func sampleInto(dst, pool []int, k int, rng *rand.Rand) []int {
	if k > len(pool) {
		k = len(pool)
	}
	perm := rng.Perm(len(pool))
	for i := 0; i < k; i++ {
		dst = append(dst, pool[perm[i]])
	}
	return dst
}

func containsInt(sl []int, v int) bool {
	for _, x := range sl {
		if x == v {
			return true
		}
	}
	return false
}
