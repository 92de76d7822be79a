package forest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/durable"
	"repro/internal/trees"
)

// TestLoad: Forest.Load leaves every kind at shards {1, 8} holding exactly
// the loaded state, each pair on its own shard, with every shard valid
// after Quiesce — for an empty, a small and a large state, inline and fanned
// out (run it at -cpu 1,2). An empty state registers no STM thread.
func TestLoad(t *testing.T) {
	type checker interface{ CheckInvariants() error }
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			for _, n := range []int{0, 100, 5000} {
				t.Run(fmt.Sprintf("%s/shards=%d/n=%d", kind, shards, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n + shards)))
					state := make(map[uint64]uint64, n)
					for len(state) < n {
						state[rng.Uint64()>>1] = rng.Uint64()
					}
					f := New(kind, WithShards(shards), WithoutMaintenance())
					defer f.Close()
					threads := len(f.stm.Threads())
					f.Load(state)
					if n == 0 && len(f.stm.Threads()) != threads {
						t.Fatalf("an empty Load registered %d STM threads", len(f.stm.Threads())-threads)
					}
					f.Quiesce(1 << 20)
					got := make(map[uint64]uint64, n)
					f.NewHandle().Range(0, ^uint64(0), func(k, v uint64) bool {
						got[k] = v
						return true
					})
					if !reflect.DeepEqual(got, state) {
						t.Fatalf("forest holds %d pairs, loaded %d; contents differ", len(got), n)
					}
					th := f.stm.NewThread()
					for i, m := range f.maps {
						m.Range(th, 0, ^uint64(0), func(k, _ uint64) bool {
							if f.ShardOf(k) != i {
								t.Errorf("key %d on shard %d, owner %d", k, i, f.ShardOf(k))
							}
							return true
						})
						if err := m.(checker).CheckInvariants(); err != nil {
							t.Errorf("shard %d: %v", i, err)
						}
					}
				})
			}
		}
	}
}

// TestLoadAfterAttachWALPanics: Load logs nothing, so it must not run on a
// forest whose writes are logged.
func TestLoadAfterAttachWALPanics(t *testing.T) {
	f := New(trees.SFOpt, WithoutMaintenance())
	defer f.Close()
	l, _, err := durable.Open(t.TempDir(), 1, durable.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.AttachWAL(l)
	defer func() {
		if recover() == nil {
			t.Fatal("Load after AttachWAL did not panic")
		}
	}()
	f.Load(map[uint64]uint64{1: 1})
}
