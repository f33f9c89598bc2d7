package main

import (
	"fmt"

	smartstore "repro"
	"repro/internal/eval"
	"repro/internal/stats"
	"repro/internal/trace"
)

// mirror is the exact state the served store must hold: the corpus
// with every acknowledged mutation applied (eval.Truth, which answers
// reads by linear scan — the truth recalls are measured against), plus
// the ids whose delete was acknowledged, for the recovery check.
type mirror struct {
	*eval.Truth
	deleted map[uint64]bool
}

func newMirror(c *corpus) *mirror {
	return &mirror{Truth: eval.NewTruth(c.set.Files, c.set.Norm), deleted: map[uint64]bool{}}
}

// apply records one acknowledged mutation and checks the verdict the
// service gave against what the mirror knows.
func (m *mirror) apply(o *op, out outcome) error {
	switch o.Kind {
	case trace.OpInsert:
		if len(out.ids) != 1 {
			return fmt.Errorf("insert %s: ids %v", o.File.Path, out.ids)
		}
		return m.Insert(out.ids[0], o.File)
	case trace.OpDelete:
		if had := m.Delete(o.ID); had != out.found {
			return fmt.Errorf("delete %d: found=%v, mirror had it=%v", o.ID, out.found, had)
		}
		m.deleted[o.ID] = true
	case trace.OpModify:
		if had := m.Modify(o.File); had != out.found {
			return fmt.Errorf("modify %d: found=%v, mirror had it=%v", o.ID, out.found, had)
		}
	}
	return nil
}

// checkStore asserts that a store holds exactly the mirrored state:
// each file present with its attributes, each deleted one gone.
func (m *mirror) checkStore(s *smartstore.Store) error {
	for _, want := range m.Files() {
		got, ok := s.FileByID(want.ID)
		if !ok {
			return fmt.Errorf("acknowledged file %d (%s) missing", want.ID, want.Path)
		}
		if got.Attrs != want.Attrs || got.Path != want.Path {
			return fmt.Errorf("file %d differs from its last acknowledged write", want.ID)
		}
	}
	for id := range m.deleted {
		if _, ok := s.FileByID(id); ok {
			return fmt.Errorf("file %d present after its acknowledged delete", id)
		}
	}
	if got := s.Stats().Files; got != m.Len() {
		return fmt.Errorf("store holds %d files, mirror %d", got, m.Len())
	}
	return nil
}

// exact answers every op of a read-only stream from the mirror.
func (m *mirror) exact(ops []op) [][]uint64 {
	out := make([][]uint64, len(ops))
	for i := range ops {
		switch o := &ops[i]; o.Kind {
		case trace.OpPoint:
			out[i] = m.Point(o.Point)
		case trace.OpRange:
			out[i] = m.Range(o.Range)
		case trace.OpTopK:
			out[i] = m.TopK(o.TopK)
		}
	}
	return out
}

// recallCheck is the score of one check stream: mean per-query recall
// for range and top-k (|T∩A|/|T|, empty truth counting 1, as the paper
// does). Point lookups have no approximate path and must be exact.
type recallCheck struct {
	rangeRecall, topkRecall float64
	ranges, topks           int
}

// checkRecall runs the check stream at a boundary and scores it against
// the exact answers.
func checkRecall(b boundary, ops []op, want [][]uint64) (recallCheck, error) {
	var rc recallCheck
	for i := range ops {
		o := &ops[i]
		out, _, err := b.exec(o)
		if err != nil {
			return rc, fmt.Errorf("check op %d (%s): %w", i, o.Kind, err)
		}
		switch o.Kind {
		case trace.OpPoint:
			if !sameIDs(out.ids, want[i]) {
				return rc, fmt.Errorf("point %s: got %v, want %v", o.Point.Filename, out.ids, want[i])
			}
		case trace.OpRange:
			rc.ranges++
			rc.rangeRecall += stats.Recall(want[i], out.ids)
		case trace.OpTopK:
			rc.topks++
			rc.topkRecall += stats.Recall(want[i], out.ids)
		}
	}
	if rc.ranges == 0 || rc.topks == 0 {
		return rc, fmt.Errorf("check stream held %d range and %d top-k ops", rc.ranges, rc.topks)
	}
	rc.rangeRecall /= float64(rc.ranges)
	rc.topkRecall /= float64(rc.topks)
	return rc, nil
}

// checkOps draws the read-only check stream: the workload's own query
// shapes over the whole corpus. Its seed is a constant, like the
// corpus's: on a fixed corpus a fixed stream has one right recall, so a
// recall that moves means the program changed, not the sample.
func checkOps(w *workload, c *corpus, n int) []op {
	spec := w.spec
	spec.Mix = readMix
	st := trace.NewOpStream(c.set, spec, checkSeed)
	out := make([]op, n)
	for i := range out {
		out[i] = makeOp(st.Next(), 0)
	}
	return out
}

// checkServed scores the check stream as the deployment serves it now,
// flushing first where the workload writes: lazy propagation hides fresh
// writes from queries until the replicas refresh, and the comparison
// must not depend on when.
func checkServed(w *workload, d *deployment, ops []op, want [][]uint64) (recallCheck, error) {
	if !w.readOnly() {
		if _, err := d.cl.Flush(); err != nil {
			return recallCheck{}, fmt.Errorf("flush: %w", err)
		}
	}
	return checkRecall(clientBoundary{cl: d.cl}, ops, want)
}
