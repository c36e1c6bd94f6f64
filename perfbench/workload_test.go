package main

import "testing"

// Small replays of the stream workloads, untraced and traced: every
// output check passes either way, and the traced trial reports its layer
// figures and stage split.

func TestPipelineTrialsPassChecks(t *testing.T) {
	w := &pipeline{in: pipelineInput(1, 4_000, pipeTxnSize, 300), dir: t.TempDir(), pristine: t.TempDir()} // an empty pristine store
	if _, err := w.probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	for _, traced := range []bool{false, true} {
		out, err := w.trial(traced)
		if err != nil {
			t.Fatalf("traced=%t: %v", traced, err)
		}
		if len(out.problems) > 0 {
			t.Fatalf("traced=%t: %v", traced, out.problems)
		}
		if out.elems == 0 || out.cpuS <= 0 || out.heapMB <= 0 {
			t.Errorf("traced=%t: elems=%v cpu=%v heap=%v", traced, out.elems, out.cpuS, out.heapMB)
		}
		if traced {
			if out.layer["kv.apply.calls"] == 0 || out.layer["txn.commit.calls"] == 0 || out.stages == nil || len(out.stages.e2e) == 0 {
				t.Errorf("traced trial is missing layer figures or stages: %v", out.layer)
			}
			if out.layer["kv.apply.sync_calls"] != 0 {
				t.Errorf("unsynced table made %v sync applies", out.layer["kv.apply.sync_calls"])
			}
		}
	}
}

func TestMixedTrialsPassChecks(t *testing.T) {
	w := &mixed{in: mixedInput(1, 3_000, mixTxnSize, 400), reqs: readerSchedule(1, 64, mixPointReads, 400)}
	if _, err := w.probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	for _, traced := range []bool{false, true} {
		out, err := w.trial(traced)
		if err != nil {
			t.Fatalf("traced=%t: %v", traced, err)
		}
		if len(out.problems) > 0 {
			t.Fatalf("traced=%t: %v", traced, out.problems)
		}
		if traced {
			if out.layer["txn.index.puts"] == 0 || out.layer["txn.index.deletes"] == 0 {
				t.Errorf("index maintenance not counted: %v", out.layer)
			}
			// The memory store declares no sync support; the wrapper must
			// keep the commit leader from asking for it.
			if out.layer["kv.apply.sync_calls"] != 0 {
				t.Errorf("mem store got %v sync applies through the wrapper", out.layer["kv.apply.sync_calls"])
			}
		}
	}
}
