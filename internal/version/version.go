// Package version implements the consistency-via-versioning mechanism of
// §4.4: each replicated (first-level) index unit accumulates metadata
// changes into attached versions instead of updating its replicas on
// every change.
//
// From t_{i−1} to t_i, insertions, deletions and modifications are
// aggregated into the t_i-th version. The version ratio — the paper's
// "file modification-to-version ratio" (§5.6) — controls how many
// changes seal one version: ratio 1 is comprehensive versioning (every
// change its own version), larger ratios aggregate more and cost less
// space. Queries "roll the version changes backwards": newest version
// first, so recent information wins and stale checks stop early.
package version

import (
	"fmt"

	"repro/internal/metadata"
)

// Kind classifies one metadata change.
type Kind int

// The change kinds §4.4 enumerates: "insertion, deletion and
// modification of file metadata, which are appropriately labeled in the
// versions".
const (
	Insert Kind = iota
	Delete
	Modify
)

// String returns the change kind's label.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Modify:
		return "modify"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Change is one labeled metadata change.
type Change struct {
	Kind Kind
	File *metadata.File
}

// Version is one sealed aggregate of changes: everything that happened
// between two version timestamps.
type Version struct {
	Seq     int
	Changes []Change
}

// Chain is the version list attached to one replicated index unit.
type Chain struct {
	ratio    int
	nextSeq  int
	pending  []Change
	versions []Version
}

// NewChain returns a chain sealing one version per ratio changes
// (ratio ≥ 1; 1 = comprehensive versioning).
func NewChain(ratio int) *Chain {
	if ratio < 1 {
		panic(fmt.Sprintf("version: ratio %d must be ≥ 1", ratio))
	}
	return &Chain{ratio: ratio}
}

// Record appends one change; when ratio changes have accumulated they
// are sealed into a new version.
func (c *Chain) Record(ch Change) {
	c.pending = append(c.pending, ch)
	if len(c.pending) >= c.ratio {
		c.seal()
	}
}

func (c *Chain) seal() {
	if len(c.pending) == 0 {
		return
	}
	// Aggregation (§5.6: "changes usually are aggregated to produce a
	// version to reduce space overhead"): multiple changes to the same
	// file within one version window coalesce into the newest one.
	// Larger ratios therefore cost less space per change.
	seen := make(map[uint64]bool, len(c.pending))
	compact := make([]Change, 0, len(c.pending))
	for i := len(c.pending) - 1; i >= 0; i-- {
		ch := c.pending[i]
		if seen[ch.File.ID] {
			continue
		}
		seen[ch.File.ID] = true
		compact = append(compact, ch)
	}
	// Restore oldest-first order within the version.
	for i, j := 0, len(compact)-1; i < j; i, j = i+1, j-1 {
		compact[i], compact[j] = compact[j], compact[i]
	}
	c.nextSeq++
	c.versions = append(c.versions, Version{
		Seq:     c.nextSeq,
		Changes: compact,
	})
	c.pending = nil
}

// WalkBackward visits changes newest-first — pending changes, then
// versions from t_i down to t_0, each version newest-change-first — and
// stops early when fn returns false. It returns the number of changes
// examined, which the cluster layer converts into the extra versioning
// latency of Fig. 14(b).
func (c *Chain) WalkBackward(fn func(Change) bool) int {
	examined := 0
	for i := len(c.pending) - 1; i >= 0; i-- {
		examined++
		if !fn(c.pending[i]) {
			return examined
		}
	}
	for v := len(c.versions) - 1; v >= 0; v-- {
		chs := c.versions[v].Changes
		for i := len(chs) - 1; i >= 0; i-- {
			examined++
			if !fn(chs[i]) {
				return examined
			}
		}
	}
	return examined
}

// Compact removes all versions (the reconfiguration of §4.4), returning
// every recorded change oldest-first so the caller can apply them to the
// original index unit and multicast them to remote replicas.
func (c *Chain) Compact() []Change {
	var out []Change
	for _, v := range c.versions {
		out = append(out, v.Changes...)
	}
	out = append(out, c.pending...)
	c.versions = nil
	c.pending = nil
	return out
}

// SizeBytes estimates the chain's memory footprint for Fig. 14(a):
// per-change label + file record, per-version header.
func (c *Chain) SizeBytes() int {
	size := 0
	for _, v := range c.versions {
		size += 16 // version header
		for _, ch := range v.Changes {
			size += 8 + ch.File.SizeBytes()
		}
	}
	for _, ch := range c.pending {
		size += 8 + ch.File.SizeBytes()
	}
	return size
}
