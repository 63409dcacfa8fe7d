package trace

import "testing"

// TestShardSinkAttribution: the shard wrapper prefixes op labels with
// "s<id>/" on every batch- and phase-level event, passes round and fault
// events through, and keeps the wrapped profile's decomposition exact.
func TestShardSinkAttribution(t *testing.T) {
	p := NewProfile()
	s := Shard(3, p)
	driveSample(s)

	bp := p.Last()
	if bp == nil {
		t.Fatal("no last batch profile")
	}
	if bp.Op != "s3/get" {
		t.Fatalf("op label = %q, want \"s3/get\"", bp.Op)
	}
	if msg := bp.CheckSums(); msg != "" {
		t.Fatalf("CheckSums through shard wrapper: %s", msg)
	}
	if bp.Faults["retransmit"] != 1 {
		t.Fatalf("faults = %v", bp.Faults)
	}
	if p.Rounds() != 2 {
		t.Fatalf("rounds observed = %d", p.Rounds())
	}

	// FindProfile reaches through the wrapper (and through a Tee of one).
	if FindProfile(s) != p {
		t.Fatal("FindProfile did not reach through shardSink")
	}
	if FindProfile(Tee(Shard(1, p))) != p {
		t.Fatal("FindProfile did not reach through Tee(shardSink)")
	}

	// Nil inner stays nil: the zero-overhead disabled path.
	if Shard(0, nil) != nil {
		t.Fatal("Shard(0, nil) != nil")
	}
}

// TestShardSinkFlushForwarding: frontend flush events forward only when
// the wrapped sink accepts them.
func TestShardSinkFlushForwarding(t *testing.T) {
	p := NewProfile()
	s := Shard(1, p)
	fs, ok := s.(FlushSink)
	if !ok {
		t.Fatal("shardSink does not implement FlushSink")
	}
	fs.Flush(FlushStat{Ops: 4, Submitted: 4})
	if got := p.Collector(); got.Flushes != 1 || got.Ops != 4 {
		t.Fatalf("collector totals = %+v", got)
	}
}

// TestCheckpointForwarding: checkpoint events pass through Shard and Tee
// to every member that takes them, and Profile sums them by kind.
func TestCheckpointForwarding(t *testing.T) {
	a, b := NewProfile(), NewProfile()
	s := Tee(Shard(2, a), b).(CheckpointSink)
	s.Checkpoint(CheckpointStat{Shard: 2, JournalOps: 5, Keys: 40, CPUWork: 90})
	s.Checkpoint(CheckpointStat{Shard: 2, Rebuild: true, JournalOps: 3, Keys: 41, CPUWork: 60})
	want := CheckpointTotals{Checkpoints: 1, Rebuilds: 1, JournalOps: 8, Keys: 81, CPUWork: 150}
	for name, p := range map[string]*Profile{"shard-wrapped": a, "direct": b} {
		if got := p.Checkpoints(); got != want {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
}
