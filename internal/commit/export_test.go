package commit

import "repro/internal/group"

// NewShardCommitter exposes newCommitter to the external tests: a
// committer labelled as shard s, quarantining through quar, with no
// heap and so no crash sites.
func NewShardCommitter[O any](apply func(ops []O, obs group.Observer) error, opts Options, s int, quar func(cause error)) *Committer[O] {
	return newCommitter(apply, opts, nil, s, quar)
}
