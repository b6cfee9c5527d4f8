package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// unstartedServer builds a two-DC partition server that is never started,
// so the test drives its replication stream to DC 1 by hand.
func unstartedServer(t *testing.T) *Server {
	t.Helper()
	net := transport.NewLocal(transport.LatencyModel{})
	s, err := NewServer(Config{DC: 0, Part: 0, NumDCs: 2, NumParts: 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		net.Close()
	})
	return s
}

// TestCutRacesDurableFlags runs the replication cut against a goroutine
// flipping the queued updates' durability flags, as group commits complete
// in any order. The cut must never panic, must ship updates in queue
// order, and must stay below the timestamp of the first update not yet
// shipped.
func TestCutRacesDurableFlags(t *testing.T) {
	s := unstartedServer(t)
	st := s.repl.streams[0]
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := r.Intn(8) + 1
		flags := make([]*atomic.Bool, n)
		tss := make([]uint64, n)
		s.putMu.Lock()
		for i := range flags {
			flags[i] = new(atomic.Bool)
			tss[i] = s.clock.Tick()
			s.repl.enqueue(wire.Update{Key: "k", TS: tss[i]}, flags[i])
		}
		s.putMu.Unlock()

		var wg sync.WaitGroup
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, i := range order {
				runtime.Gosched()
				flags[i].Store(true)
			}
		}(r.Perm(n))

		shipped := 0
		for shipped < n {
			batch, high := st.cut()
			for _, u := range batch {
				if u.TS != tss[shipped] {
					t.Fatalf("round %d: shipped ts %d, want ts %d next", round, u.TS, tss[shipped])
				}
				shipped++
			}
			if shipped < n && high >= tss[shipped] {
				t.Fatalf("round %d: cut %d reaches unshipped ts %d", round, high, tss[shipped])
			}
		}
		wg.Wait()
	}
}

// TestCloseWithoutStart: Close must return on a server whose background
// work was never started.
func TestCloseWithoutStart(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	s, err := NewServer(Config{DC: 0, Part: 0, NumDCs: 2, NumParts: 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a server that was never started")
	}
}
