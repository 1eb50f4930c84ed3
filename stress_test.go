package tell_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tell"
)

// TestConcurrentTransactStress drives four embedded processing nodes at once,
// one goroutine and one table each, on real goroutines and wall-clock time.
// A store client's pipelined senders share one queue per storage node, so a
// sender that checks the queue's length and then blocks in Get can lose the
// op to a peer and park on a partial batch it never sends. With a single
// goroutine per client no later op comes along to release it, and the
// transaction waits for ever. A watchdog turns a hang into a failure with
// every goroutine's stack.
func TestConcurrentTransactStress(t *testing.T) {
	const workers, txns, inserts = 4, 25, 50
	c := startCluster(t, tell.Options{StorageNodes: 3})
	dbs := make([]*tell.DB, workers)
	tables := make([]*tell.Table, workers)
	for w := range dbs {
		db, err := c.NewProcessingNode(fmt.Sprintf("pn%d", w))
		if err != nil {
			t.Fatal(err)
		}
		schema := usersSchema()
		schema.Name = fmt.Sprintf("users%d", w)
		table, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		dbs[w], tables[w] = db, table
	}
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			db, table := dbs[w], tables[w]
			for i := 0; i < txns; i++ {
				base := (w*txns + i) * inserts
				err := db.Transact(func(tx *tell.Tx) error {
					for k := 0; k < inserts; k++ {
						id := int64(base + k)
						row := tell.Row{tell.I64(id), tell.Str(fmt.Sprintf("u%d", id)), tell.I64(id)}
						if _, err := tx.Insert(table, row); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					done <- fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
			}
			done <- nil
		}(w)
	}
	watchdog := time.NewTimer(30 * time.Second)
	defer watchdog.Stop()
	for w := 0; w < workers; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog.C:
			buf := make([]byte, 4<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d of %d workers still running after 30s; goroutines:\n%s", workers-w, workers, buf)
		}
	}

	for w, db := range dbs {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := tx.ScanTable(tables[w], func(uint64, tell.Row) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want := txns * inserts; rows != want {
			t.Fatalf("%s holds %d rows, want %d", tables[w].Name(), rows, want)
		}
	}
}
