package core

import (
	"testing"

	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// TestAdaptiveShrinksWhenOrecsUnused: tiny critical sections against a
// large orec array drive the adaptive variant to shrink it, and a window in
// which a slow path committed keeps FG mode. Before each section the test
// stamps both slow-path signals with the current epoch, standing in for
// slow-path writers that commit, so neither adaptive's mode nor FG-TLE's
// mode word has a reason to flip.
func TestAdaptiveShrinksWhenOrecsUnused(t *testing.T) {
	m := mem.New(1 << 18)
	meth := NewAdaptiveFGTLE(m, Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	before := meth.CurrentOrecs()
	for i := 0; i < 200; i++ {
		epoch := m.Load(meth.epochAddr)
		meth.slow.commit.n.Store(epoch)
		meth.slow.write.n.Store(epoch)
		// Force the lock path so the adaptation policy runs.
		th.Atomic(func(c Context) {
			c.Unsupported()
			c.Write(a, c.Read(a)+1)
		})
	}
	if after := meth.CurrentOrecs(); after >= before {
		t.Fatalf("orec array did not shrink: %d -> %d", before, after)
	}
	st := th.Stats()
	if st.Resizes == 0 {
		t.Fatal("no resizes recorded")
	}
	if st.ModeSwitches != 0 {
		t.Fatalf("%d mode switches in windows that each saw a slow commit, want 0", st.ModeSwitches)
	}
}

// TestSlowCommitStampsTheWord: a committed slow attempt of adaptive FG-TLE
// stamps the slow-commit word with its epoch snapshot, an aborted one
// leaves it alone, and FG-TLE(n)'s attempts never write it.
func TestSlowCommitStampsTheWord(t *testing.T) {
	m := mem.New(1 << 16)
	fg := NewFGTLE(m, 256, Policy{})
	ad := NewAdaptiveFGTLE(m, Policy{})
	l := m.AllocLines(1)
	for _, tc := range []struct {
		name    string
		lock    *spinlock.Lock
		o       orecTable
		runSlow func(func(Context)) htm.AbortReason
		stamps  bool
	}{
		{fg.Name(), fg.Lock(), fg.orecTable, fg.NewThread().(*fgtleThread).runSlow, false},
		{ad.Name(), ad.Lock(), ad.orecTable, ad.NewThread().(*adaptiveThread).runSlow, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.lock.Acquire()
			defer tc.lock.Release()
			if r := tc.runSlow(func(c Context) { c.Read(l); c.Unsupported() }); r != htm.Unsupported {
				t.Fatalf("aborting attempt: %v, want %v", r, htm.Unsupported)
			}
			if got := tc.o.slow.commit.n.Load(); got != 0 {
				t.Fatalf("an aborted attempt stamped the slow-commit word with %d", got)
			}
			if r := tc.runSlow(func(c Context) { c.Read(l) }); r != htm.None {
				t.Fatalf("read-only attempt beside an idle holder: %v, want a commit", r)
			}
			want := uint64(0)
			if tc.stamps {
				want = m.Load(tc.o.epochAddr)
			}
			if got := tc.o.slow.commit.n.Load(); got != want {
				t.Fatalf("slow-commit word %d after a commit, want %d", got, want)
			}
		})
	}
}
