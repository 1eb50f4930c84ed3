package btree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/testutil"
)

// treeOp is one step of a generated operation log.
type treeOp struct {
	kind byte // 'i' insert, 'b' batched insert, 'd' delete, 'u' update, 'l' lookup, 's' scan
	key  int
	val  int
	keys []int // 'b': the batch's keys, in batch order (val is shared)
}

func (o treeOp) String() string {
	switch o.kind {
	case 'i':
		return fmt.Sprintf("insert(%d,%d)", o.key, o.val)
	case 'b':
		return fmt.Sprintf("insertMany(%v,%d)", o.keys, o.val)
	case 'd':
		return fmt.Sprintf("delete(%d)", o.key)
	case 'u':
		return fmt.Sprintf("update(%d,%d)", o.key, o.val)
	case 'l':
		return fmt.Sprintf("lookup(%d)", o.key)
	default:
		return "scan()"
	}
}

func opLogString(ops []treeOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// applyOps replays an operation log against a fresh tree and a model map,
// comparing results step by step and the full scan at the end. It returns a
// description of the first divergence, or "" when the tree matches the
// model throughout.
func applyOps(t *testing.T, ops []treeOp) string {
	t.Helper()
	h := newTreeHarness(t, 2)
	var failure string
	h.run(t, func(ctx env.Ctx) {
		if err := btree.Create(ctx, "prop", h.client); err != nil {
			failure = fmt.Sprintf("create: %v", err)
			return
		}
		tr := btree.New("prop", h.client)
		tr.MaxKeys = 4 // tiny fanout: a few dozen keys exercise splits and depth
		model := make(map[string][]byte)
		for i, o := range ops {
			k, v := key(o.key), val(o.val)
			switch o.kind {
			case 'i':
				existed, err := tr.Insert(ctx, k, v)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if existed != inModel {
					failure = fmt.Sprintf("op %d %s: existed=%v, model=%v", i, o, existed, inModel)
					return
				}
				if !existed {
					model[string(k)] = v
				}
			case 'b':
				keys := make([][]byte, len(o.keys))
				vals := make([][]byte, len(o.keys))
				for j, bk := range o.keys {
					keys[j], vals[j] = key(bk), v
				}
				existed, err := tr.InsertMany(ctx, keys, vals)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				// Entry j existed if the model held its key before the
				// batch or an earlier entry of the batch carried it.
				for j, bk := range keys {
					_, inModel := model[string(bk)]
					if existed[j] != inModel {
						failure = fmt.Sprintf("op %d %s: entry %d existed=%v, model=%v", i, o, j, existed[j], inModel)
						return
					}
					if !inModel {
						model[string(bk)] = v
					}
				}
			case 'd':
				removed, err := tr.Delete(ctx, k)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if removed != inModel {
					failure = fmt.Sprintf("op %d %s: removed=%v, model=%v", i, o, removed, inModel)
					return
				}
				delete(model, string(k))
			case 'u':
				updated, err := tr.Update(ctx, k, v)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				_, inModel := model[string(k)]
				if updated != inModel {
					failure = fmt.Sprintf("op %d %s: updated=%v, model=%v", i, o, updated, inModel)
					return
				}
				if updated {
					model[string(k)] = v
				}
			case 'l':
				got, found, err := tr.Lookup(ctx, k)
				if err != nil {
					failure = fmt.Sprintf("op %d %s: %v", i, o, err)
					return
				}
				want, inModel := model[string(k)]
				if found != inModel || (found && !bytes.Equal(got, want)) {
					failure = fmt.Sprintf("op %d %s: got (%q,%v), model (%q,%v)",
						i, o, got, found, want, inModel)
					return
				}
			case 's':
				if failure = scanMatchesModel(ctx, tr, model); failure != "" {
					failure = fmt.Sprintf("op %d %s: %s", i, o, failure)
					return
				}
			}
		}
		failure = scanMatchesModel(ctx, tr, model)
	})
	return failure
}

// scanMatchesModel compares a full scan with the sorted model content.
func scanMatchesModel(ctx env.Ctx, tr *btree.Tree, model map[string][]byte) string {
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	mismatch := ""
	err := tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
		if i >= len(want) {
			mismatch = fmt.Sprintf("scan: extra key %q", k)
			return false
		}
		if string(k) != want[i] || !bytes.Equal(v, model[want[i]]) {
			mismatch = fmt.Sprintf("scan at %d: got (%q,%q), want (%q,%q)",
				i, k, v, want[i], model[want[i]])
			return false
		}
		i++
		return true
	})
	if err != nil {
		return fmt.Sprintf("scan: %v", err)
	}
	if mismatch != "" {
		return mismatch
	}
	if i != len(want) {
		return fmt.Sprintf("scan: %d keys, want %d", i, len(want))
	}
	return ""
}

// shrinkOps greedily removes chunks of a failing op log while the failure
// persists, ending with a (locally) minimal reproduction.
func shrinkOps(t *testing.T, ops []treeOp) []treeOp {
	t.Helper()
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for at := 0; at+chunk <= len(ops); {
			cand := append(append([]treeOp{}, ops[:at]...), ops[at+chunk:]...)
			if applyOps(t, cand) != "" {
				ops = cand // still failing without this chunk: drop it
			} else {
				at += chunk
			}
		}
	}
	return ops
}

// batchKeys draws the keys of one batched insert: 1 to 12 of them (more
// than the tree's MaxKeys of 4, so one batch can fill and split a leaf and
// span several), either a run of adjacent keys in shuffled order or random
// ones, and sometimes one key twice.
func batchKeys(rng *rand.Rand, keySpace int) []int {
	keys := make([]int, 1+rng.Intn(12))
	start := rng.Intn(keySpace)
	adjacent := rng.Intn(2) == 0
	for j := range keys {
		if adjacent {
			keys[j] = (start + j) % keySpace
		} else {
			keys[j] = rng.Intn(keySpace)
		}
	}
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	if rng.Intn(3) == 0 {
		keys = append(keys, keys[rng.Intn(len(keys))])
	}
	return keys
}

// TestTreePropertyVsModel drives random op logs against a model-map oracle.
// On failure it shrinks the log to a minimal reproduction and prints it with
// the seed (replay with TELL_SEED).
func TestTreePropertyVsModel(t *testing.T) {
	seed := testutil.Seed(t, 13)
	rng := rand.New(rand.NewSource(seed))
	const rounds = 5
	const opsPerRound = 300
	const keySpace = 60 // small enough that deletes hit live keys often
	for round := 0; round < rounds; round++ {
		ops := make([]treeOp, opsPerRound)
		for i := range ops {
			o := treeOp{key: rng.Intn(keySpace), val: rng.Intn(1000)}
			switch r := rng.Intn(12); {
			case r < 4:
				o.kind = 'i'
			case r < 6:
				o.kind = 'd'
			case r < 7:
				o.kind = 'u'
			case r < 9:
				o.kind = 'l'
			case r < 10:
				o.kind = 's'
			default:
				o.kind, o.keys = 'b', batchKeys(rng, keySpace)
			}
			ops[i] = o
		}
		if failure := applyOps(t, ops); failure != "" {
			min := shrinkOps(t, ops)
			t.Fatalf("round %d: %s\nminimal op log (%d of %d ops): %s",
				round, failure, len(min), len(ops), opLogString(min))
		}
	}
}
