package forest

import (
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/sftree"
	"repro/internal/trees"
)

// TestDurableChurnLeaksNoNodes: two handles churn a durable forest at its
// hot spot — each inserts ascending fresh keys, interleaved with the
// other's, so both link at the rightmost leaf, and deletes its own key from
// four inserts back — while the sweep unlinks the deleted keys. Every
// insert links a fresh node; the yield knob interleaves the handles inside
// their transactions, so many an attempt loses the race for the leaf after
// linking one. Once maintenance has quiesced, the arena must hold exactly
// the reachable nodes (the root sentinel included): a Quiesce that
// converged with every handle idle has emptied the maintenance limbos, so any
// surplus is a node an aborted attempt took and nobody freed. Every
// operation must also have logged one record. The insert runs through each
// forest operation that can link a node: Insert, Update's Op.Insert and
// Atomic's Put.
func TestDurableChurnLeaksNoNodes(t *testing.T) {
	const churnOps = 5000
	inserts := []struct {
		name   string
		insert func(h *Handle, k, v uint64) bool
	}{
		{"Insert", (*Handle).Insert},
		{"Update", func(h *Handle, k, v uint64) (ok bool) {
			h.Update(func(op *Op) { ok = op.Insert(k, v) })
			return ok
		}},
		{"AtomicPut", func(h *Handle, k, v uint64) bool {
			return h.Atomic(func(x *ftx.Tx) error { x.Put(k, v); return nil }) == nil
		}},
	}
	for _, kind := range []trees.Kind{trees.SF, trees.SFOpt} {
		t.Run(string(kind), func(t *testing.T) {
			for _, ins := range inserts {
				t.Run(ins.name, func(t *testing.T) {
					churnLeaksNoNodes(t, kind, churnOps, ins.insert)
				})
			}
		})
	}
}

func churnLeaksNoNodes(t *testing.T, kind trees.Kind, churnOps uint64, insert func(h *Handle, k, v uint64) bool) {
	f := New(kind, WithShards(1), WithYield(3))
	defer f.Close()
	l, _, err := durable.Open(t.TempDir(), 1, durable.Options{GroupCommit: time.Hour, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.AttachWAL(l)

	hs := []*Handle{f.NewHandle(), f.NewHandle()}
	oks := make([]uint64, len(hs))
	var wg sync.WaitGroup
	for g, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < churnOps; i++ {
				k := 2*i + uint64(g)
				if !insert(h, k, i) {
					t.Errorf("insert of fresh key %d failed", k)
					return
				}
				oks[g]++
				if i >= 4 {
					if !h.Delete(k - 8) {
						t.Errorf("Delete of key %d failed", k-8)
						return
					}
					oks[g]++
				}
			}
		}()
	}
	wg.Wait()

	if recs := l.Stats().Records; recs != oks[0]+oks[1] {
		t.Errorf("%d records logged for %d successful operations", recs, oks[0]+oks[1])
	}
	t.Logf("%d aborted attempts", hs[0].Stats().Aborts+hs[1].Stats().Aborts)
	defer f.drv.Pause()()
	for si, m := range f.maps {
		tr := m.(*sftree.Tree)
		if !tr.Quiesce(1000) {
			t.Fatalf("shard %d: Quiesce did not converge with every handle idle", si)
		}
		live, reachable := tr.Arena().Live(), uint64(1+tr.PhysicalSize())
		t.Logf("shard %d: arena live %d, reachable %d", si, live, reachable)
		if live != reachable {
			t.Errorf("shard %d: arena holds %d nodes, %d reachable: %d leaked", si, live, reachable, live-reachable)
		}
	}
}
