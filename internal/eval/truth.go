// Package eval is the ground-truth oracle the evaluation harnesses
// (cmd/smarteval and the bench module) score served answers against: a
// single union corpus that mirrors every acknowledged mutation and
// answers queries exactly by scan, for recall as the paper's Fig. 10/12
// methodology defines it (recall = |T(q) ∩ A(q)| / |T(q)|, empty truth
// counting as 1).
package eval

import (
	"fmt"
	"sort"

	"repro/internal/metadata"
	"repro/internal/query"
)

// Truth is the single-union-store ground truth: a linear mirror of
// every file the served deployment holds, answered exactly by scan
// (query.RangeTruth / TopKTruth / PointTruth). It is not safe for
// concurrent mutation; the runner mutates it only between query rounds.
type Truth struct {
	norm  *metadata.Normalizer
	files map[uint64]*metadata.File
	snap  []*metadata.File
	dirty bool
}

// NewTruth seeds the mirror with the build corpus and the (frozen)
// normalizer the served store fitted over the same corpus.
func NewTruth(files []*metadata.File, norm *metadata.Normalizer) *Truth {
	t := &Truth{norm: norm, files: make(map[uint64]*metadata.File, len(files)), dirty: true}
	for _, f := range files {
		cp := *f
		t.files[f.ID] = &cp
	}
	return t
}

// Files returns a stable snapshot slice in ascending id order,
// rebuilding it only after mutations. The runner calls it once before
// each concurrent query round; the returned slice must not be mutated.
func (t *Truth) Files() []*metadata.File {
	if t.dirty {
		t.snap = t.snap[:0]
		for _, f := range t.files {
			t.snap = append(t.snap, f)
		}
		// Deterministic order so truth answers are reproducible.
		sort.Slice(t.snap, func(i, j int) bool { return t.snap[i].ID < t.snap[j].ID })
		t.dirty = false
	}
	return t.snap
}

// Len reports the mirrored population size.
func (t *Truth) Len() int { return len(t.files) }

// Insert mirrors a served insert under the id the server allocated.
func (t *Truth) Insert(id uint64, f *metadata.File) error {
	if id == 0 {
		return fmt.Errorf("eval: truth insert with zero id (path %q)", f.Path)
	}
	if _, dup := t.files[id]; dup {
		return fmt.Errorf("eval: truth insert duplicate id %d", id)
	}
	cp := *f
	cp.ID = id
	t.files[id] = &cp
	t.dirty = true
	return nil
}

// Delete mirrors a served delete, reporting whether the id existed —
// the runner cross-checks this against the server's verdict.
func (t *Truth) Delete(id uint64) bool {
	if _, ok := t.files[id]; !ok {
		return false
	}
	delete(t.files, id)
	t.dirty = true
	return true
}

// Modify mirrors a served full-vector modify, reporting whether the id
// existed.
func (t *Truth) Modify(f *metadata.File) bool {
	cur, ok := t.files[f.ID]
	if !ok {
		return false
	}
	cur.Attrs = f.Attrs
	t.dirty = true
	return true
}

// Range answers exactly by linear scan.
func (t *Truth) Range(q query.Range) []uint64 { return query.RangeTruth(t.Files(), q) }

// TopK answers exactly by linear scan under the shared normalizer.
func (t *Truth) TopK(q query.TopK) []uint64 { return query.TopKTruth(t.Files(), t.norm, q) }

// Point answers exactly by linear scan.
func (t *Truth) Point(q query.Point) []uint64 { return query.PointTruth(t.Files(), q) }
