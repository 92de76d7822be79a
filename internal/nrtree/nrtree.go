// Package nrtree provides the no-restructuring tree (NRtree) baseline of
// the paper's evaluation (§5.2): a tree "similar [to the
// speculation-friendly tree] but that never rebalances the structure
// whatever modifications occur" and that never physically removes nodes.
//
// It is, by construction, the portable speculation-friendly tree with its
// maintenance thread permanently disabled: deletions stay logical, inserted
// nodes are never rotated, and the structure degrades towards a list under
// skewed workloads — the behaviour Fig. 3 (right) demonstrates. Expressing
// it as a wrapper makes the ablation exact: NRtree vs SFtree differs only
// in the presence of the structural transactions.
package nrtree

import (
	"repro/internal/sftree"
	"repro/internal/stm"
)

// Tree is a no-restructuring binary search tree.
type Tree struct {
	*sftree.Tree
}

// New creates an empty no-restructuring tree on the given STM domain.
func New(s *stm.STM) *Tree {
	return &Tree{Tree: sftree.New(s, sftree.WithVariant(sftree.Portable))}
}

// Start is a no-op: the defining property of the NRtree is the absence of
// the maintenance thread.
func (t *Tree) Start() {}

// Stop is a no-op, matching Start.
func (t *Tree) Stop() {}

// RunMaintenancePass is a no-op returning 0: no restructuring ever happens.
func (t *Tree) RunMaintenancePass() int { return 0 }

// Quiesce trivially succeeds: there is never maintenance work to drain.
func (t *Tree) Quiesce(int) bool { return true }
