package main

import (
	"fmt"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
	"qhorn/internal/verify"
)

// The reference evaluator decides qhorn membership from the exported
// structure of query.Query alone (§2.1): it never calls Query.Eval,
// the compiled kernel or the slab kernel, so every output check below
// stands apart from the evaluators the benchmark measures.

// refHolds reports whether one expression holds on an object given by
// its tuples.
//
//   - ∀ B → h: every tuple with all of B true has h true, and some
//     tuple has all of B ∪ {h} true (the implicit guarantee clause).
//   - ∃ B → h and ∃ C: some tuple has all of B ∪ {h} (resp. C) true.
func refHolds(e query.Expr, tuples []boolean.Tuple) bool {
	need := uint64(e.Body)
	if e.Head != query.NoHead {
		need |= 1 << uint(e.Head)
	}
	witnessed := false
	for _, t := range tuples {
		bits := uint64(t)
		if bits&need == need {
			witnessed = true
		}
		if e.Quant == query.Forall && bits&uint64(e.Body) == uint64(e.Body) && bits&(1<<uint(e.Head)) == 0 {
			return false
		}
	}
	return witnessed
}

// refEval reports whether the object is an answer to q: a conjunction
// of its expressions. The empty query accepts every object.
func refEval(q query.Query, tuples []boolean.Tuple) bool {
	for _, e := range q.Exprs {
		if !refHolds(e, tuples) {
			return false
		}
	}
	return true
}

// maskTuples lists the tuples of the object whose bit t is set in
// mask: the exhaustive enumeration of objects for n ≤ 4.
func maskTuples(mask uint64, buf []boolean.Tuple) []boolean.Tuple {
	buf = buf[:0]
	for t := 0; mask != 0; t++ {
		if mask&1 == 1 {
			buf = append(buf, boolean.Tuple(t))
		}
		mask >>= 1
	}
	return buf
}

// sampleObjects draws count small random objects over u: 1 to 2n
// tuples each, with a per-object density, so both sparse and dense
// tuples reach the evaluator. The first object is empty.
func sampleObjects(rng *rand.Rand, u boolean.Universe, count int) [][]boolean.Tuple {
	out := [][]boolean.Tuple{nil}
	n := u.N()
	for len(out) < count {
		density := rng.Float64()
		size := 1 + rng.Intn(2*n)
		obj := make([]boolean.Tuple, size)
		for i := range obj {
			var t boolean.Tuple
			for v := 0; v < n; v++ {
				if rng.Float64() < density {
					t |= 1 << uint(v)
				}
			}
			obj[i] = t
		}
		out = append(out, obj)
	}
	return out
}

// disagreement returns an object on which a and b differ, if the
// evaluator finds one. For n ≤ 4 it tries every object; beyond, the
// §4 verification sets of both queries (Theorem 4.2: a set separates
// its query from every inequivalent role-preserving query) and a
// seeded sample of objects.
func disagreement(a, b query.Query, rng *rand.Rand) ([]boolean.Tuple, bool) {
	u := a.U
	if u.N() <= 4 {
		var buf []boolean.Tuple
		for mask := uint64(0); mask < 1<<(1<<uint(u.N())); mask++ {
			buf = maskTuples(mask, buf)
			if refEval(a, buf) != refEval(b, buf) {
				return append([]boolean.Tuple(nil), buf...), true
			}
		}
		return nil, false
	}
	var objects [][]boolean.Tuple
	for _, q := range []query.Query{a, b} {
		if vs, err := verify.Build(q); err == nil {
			for _, vq := range vs.Questions {
				objects = append(objects, vq.Set.Tuples())
			}
		}
	}
	objects = append(objects, sampleObjects(rng, u, 64)...)
	for _, obj := range objects {
		if refEval(a, obj) != refEval(b, obj) {
			return obj, true
		}
	}
	return nil, false
}

// agree checks that learned agrees with hidden on every object the
// reference evaluator tries.
func agree(hidden, learned query.Query, rng *rand.Rand) error {
	if obj, differ := disagreement(hidden, learned, rng); differ {
		return fmt.Errorf("learned %s disagrees with hidden %s on object %v", learned, hidden, obj)
	}
	return nil
}

// checkPaperExamples pins the reference evaluator to the worked
// examples of the paper before any output is judged by it.
func checkPaperExamples() error {
	type example struct {
		n      int
		query  string
		object string
		answer bool
		why    string
	}
	examples := []example{
		// Query (1), §2: every chocolate is dark, and some chocolate is
		// filled and from Madagascar.
		{3, "∀x1 ∃x2x3", "{111, 110}", true, "query (1): all dark, one filled Madagascar"},
		{3, "∀x1 ∃x2x3", "{111, 010}", false, "query (1): a chocolate is not dark"},
		{3, "∀x1 ∃x2x3", "{111, 000, 110}", false, "query (1), Fig. 1: a chocolate is not dark"},
		{3, "∀x1 ∃x2x3", "{100, 110}", false, "query (1), Fig. 1: no filled Madagascar chocolate"},
		// §2.1 property 2: the guarantee clause of ∀x1 → x2 is ∃x1x2.
		{3, "∀x1 → x2", "{000}", false, "guarantee clause: no tuple has x1x2"},
		{3, "∀x1 → x2", "{}", false, "the empty box is a non-answer"},
		{3, "∀x1 → x2", "{110}", true, "guarantee clause witnessed"},
		{3, "∀x1 → x2", "{110, 100}", false, "universal Horn expression violated"},
		// Query (2), §3.2.2: the object of its five dominant
		// conjunctions is an answer; dropping any one is not.
		{6, q2, "{100110, 111001, 011110, 110011, 011011}", true, "query (2): all dominant conjunctions"},
		{6, q2, "{111001, 011110, 110011, 011011}", false, "query (2): ∃x1x4x5 missing"},
		{6, q2, "{100110, 011110, 110011, 011011}", false, "query (2): ∃x1x2x3x6 missing"},
		{6, q2, "{100110, 111001, 110011, 011011}", false, "query (2): ∃x2x3x4x5 missing"},
		{6, q2, "{100110, 111001, 011110, 011011}", false, "query (2): ∃x1x2x5x6 missing"},
		{6, q2, "{100110, 111001, 011110, 110011}", false, "query (2): ∃x2x3x5x6 missing"},
		{6, q2, "{100110, 111001, 011110, 110011, 011011, 110100}", false, "query (2): ∀x1x2 → x6 violated"},
	}
	for _, ex := range examples {
		u := boolean.MustUniverse(ex.n)
		q, err := query.Parse(u, ex.query)
		if err != nil {
			return err
		}
		s, err := boolean.ParseSet(u, ex.object)
		if err != nil {
			return err
		}
		if got := refEval(q, s.Tuples()); got != ex.answer {
			return fmt.Errorf("reference evaluator: %s on %s = %v, paper says %v (%s)", ex.query, ex.object, got, ex.answer, ex.why)
		}
	}
	// Rules R1–R3 (§2.1) rewrite a query into an equivalent one: the
	// evaluator must agree on every object.
	for _, pair := range [][3]string{
		{"4", "∀x1x2 → x3 ∀x1 → x3 ∃x1x2 ∃x1", "∀x1 → x3 ∃x1x2x3"},
		{"3", "∀x1 → x2 ∃x1x3", "∀x1 → x2 ∃x1x2x3"},
		{"3", "∃x1 → x2", "∃x1x2"},
	} {
		u := boolean.MustUniverse(int(pair[0][0] - '0'))
		a, b := query.MustParse(u, pair[1]), query.MustParse(u, pair[2])
		if obj, differ := disagreement(a, b, nil); differ {
			return fmt.Errorf("reference evaluator: %s and %s are equivalent by R1–R3 but differ on %v", pair[1], pair[2], obj)
		}
	}
	return nil
}

// q2 is query (2) of §3.2.2.
const q2 = "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6"
