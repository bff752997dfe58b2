package commit_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/commit"
	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/shard"
)

// TestErrorChainTransparency: callers match failures by sentinel
// (errors.Is) or by type (errors.As) without knowing how many layers
// wrapped them — every nesting the batch and async paths can produce
// stays transparent.
func TestErrorChainTransparency(t *testing.T) {
	quarCause := errors.New("recovery rejected image")
	unavailable := &shard.ShardUnavailableError{Shard: 2, Cause: quarCause}
	groupCrash := &group.Error{Applied: 3, Err: crash.ErrCrashed}

	cases := []struct {
		name string
		err  error
		is   []error // sentinels the chain must match
		not  []error // sentinels the chain must NOT match
		as   func(error) bool
	}{
		{
			name: "bare ShardUnavailableError",
			err:  unavailable,
			is:   []error{shard.ErrShardUnavailable, quarCause},
			not:  []error{commit.ErrCommitterFailed, crash.ErrCrashed},
			as: func(err error) bool {
				var se *shard.ShardUnavailableError
				return errors.As(err, &se) && se.Shard == 2
			},
		},
		{
			name: "SubBatchError wrapping shard unavailability",
			err:  &shard.SubBatchError{Shard: 2, OpIndices: []int{0, 4}, Err: unavailable},
			is:   []error{shard.ErrShardUnavailable, quarCause},
			not:  []error{commit.ErrCommitterFailed},
			as: func(err error) bool {
				var se *shard.ShardUnavailableError
				return errors.As(err, &se) && se.Shard == 2
			},
		},
		{
			name: "BatchError over SubBatchError over ShardUnavailableError",
			err: &shard.BatchError{Failed: []shard.SubBatchError{
				{Shard: 0, Err: &group.Error{Applied: 1, Err: errors.New("key rejected")}},
				{Shard: 2, Err: unavailable},
			}},
			is:  []error{shard.ErrShardUnavailable, quarCause},
			not: []error{commit.ErrCommitterFailed, crash.ErrCrashed},
			as: func(err error) bool {
				var se *shard.ShardUnavailableError
				if !errors.As(err, &se) || se.Shard != 2 {
					return false
				}
				var sbe *shard.SubBatchError
				return errors.As(err, &sbe)
			},
		},
		{
			name: "fmt-wrapped BatchError",
			err: fmt.Errorf("flush: %w", &shard.BatchError{Failed: []shard.SubBatchError{
				{Shard: 2, Err: unavailable},
			}}),
			is:  []error{shard.ErrShardUnavailable, quarCause},
			not: []error{commit.ErrCommitterFailed},
			as: func(err error) bool {
				var be *shard.BatchError
				return errors.As(err, &be) && len(be.Failed) == 1
			},
		},
		{
			name: "CommitterError wrapping a group crash",
			err:  &commit.CommitterError{Shard: 1, Cause: groupCrash},
			is:   []error{commit.ErrCommitterFailed, crash.ErrCrashed},
			not:  []error{shard.ErrShardUnavailable},
			as: func(err error) bool {
				var ce *commit.CommitterError
				if !errors.As(err, &ce) || ce.Shard != 1 {
					return false
				}
				var ge *group.Error
				return errors.As(err, &ge) && ge.Applied == 3
			},
		},
		{
			name: "CommitterError wrapping shard unavailability",
			err:  &commit.CommitterError{Shard: 2, Cause: unavailable},
			is:   []error{commit.ErrCommitterFailed, shard.ErrShardUnavailable, quarCause},
			not:  []error{crash.ErrCrashed},
			as: func(err error) bool {
				var se *shard.ShardUnavailableError
				return errors.As(err, &se) && se.Shard == 2
			},
		},
		{
			name: "future-style rejection sentinels",
			err:  fmt.Errorf("async insert: %w", commit.ErrClosed),
			is:   []error{commit.ErrClosed},
			not:  []error{commit.ErrCommitterFailed, shard.ErrShardUnavailable},
			as:   func(err error) bool { return true },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range tc.is {
				if !errors.Is(tc.err, target) {
					t.Errorf("errors.Is(%v, %v) = false, want true", tc.err, target)
				}
			}
			for _, target := range tc.not {
				if errors.Is(tc.err, target) {
					t.Errorf("errors.Is(%v, %v) = true, want false", tc.err, target)
				}
			}
			if !tc.as(tc.err) {
				t.Errorf("errors.As checks failed for %v", tc.err)
			}
		})
	}
}

// TestErrorChainLive reproduces the deepest chain end-to-end: a future
// failed by a quarantined shard carries the typed unavailability
// through the pipeline, matchable by both Is and As.
func TestErrorChainLive(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	quarCause := errors.New("verifier verdict: corrupt")
	m.Quarantine(0, quarCause)
	p := commit.NewOrdered(m, commit.Options{Queue: 4, MaxBatch: 2})
	defer p.Close()

	for id := uint64(0); id < 64; id++ {
		key := []byte(fmt.Sprintf("key-%03d", id))
		if m.Route(key) != 0 {
			continue
		}
		f, err := p.Insert(key, id)
		if err != nil {
			t.Fatal(err)
		}
		werr := waitGuarded(t, f)
		if !errors.Is(werr, shard.ErrShardUnavailable) || !errors.Is(werr, quarCause) {
			t.Fatalf("future error %v does not chain to the quarantine", werr)
		}
		var se *shard.ShardUnavailableError
		if !errors.As(werr, &se) || se.Shard != 0 {
			t.Fatalf("future error %v does not expose the shard", werr)
		}
		return
	}
	t.Fatal("no key routed to shard 0")
}
