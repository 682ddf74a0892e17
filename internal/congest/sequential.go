package congest

// SequentialEngine executes all nodes in id order within each round. Runs
// are fully deterministic and this is the reference implementation the
// other engines are verified against. Its step collects every node's sends
// into one Outbox, in ascending sender order by construction.
type SequentialEngine struct{}

var _ Engine = SequentialEngine{}

// Run implements Engine.
func (SequentialEngine) Run(nw *Network, opts Options) (Metrics, error) {
	out := new(Outbox)
	outs := []*Outbox{out}
	return runRounds(nw, opts, func(r *roundState) ([]*Outbox, error) {
		for id, done := range r.done {
			if !done {
				out.from = NodeID(id)
				r.stepDone[id] = nw.nodes[id].Step(r.round, r.inbox(id), out)
			}
		}
		return outs, nil
	})
}
