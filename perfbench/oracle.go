package main

import (
	"context"
	"encoding/hex"
	"fmt"

	"repro/internal/admit"
)

// admitOp runs one op against an in-process cluster and returns the
// verdict in the shape the HTTP client records.
func admitOp(ctx context.Context, c *admit.Cluster, o op) (verdict, error) {
	if o.Kind == opRemove {
		ok, err := c.Remove(ctx, o.Handle)
		return verdict{Removed: ok}, err
	}
	res, err := c.Admit(ctx, o.Task)
	return verdict{Accepted: res.Accepted, Handle: res.Handle, Proc: res.Proc, Cause: res.Cause}, err
}

// verifyVerdicts replays every tenant's recorded ops through a fresh
// in-process admit.Service and requires the same Accepted, Handle, Proc and
// Cause (or Removed) per op, then byte-equal canonical state. It returns
// the number of ops replayed and a description of each mismatch (at most
// a few are kept).
func verifyVerdicts(logs []*tenantLog, canonHex string) (int, []string, error) {
	ctx := context.Background()
	svc := admit.NewService(0)
	var bad []string
	n := 0
	for _, tl := range logs {
		c, err := svc.Create(ctx, tl.spec.Name, tl.spec.M, tl.spec.Policy, 0)
		if err != nil {
			return n, nil, err
		}
		for i, o := range tl.ops {
			v, err := admitOp(ctx, c, o)
			if err != nil {
				return n, nil, fmt.Errorf("%s op %d: %w", tl.spec.Name, i, err)
			}
			n++
			if v != tl.verdicts[i] {
				if len(bad) < 5 {
					bad = append(bad, fmt.Sprintf("%s op %d: daemon %+v, in-process %+v", tl.spec.Name, i, tl.verdicts[i], v))
				}
				if len(bad) == 5 {
					bad = append(bad, "...")
				}
			}
		}
	}
	if got := hex.EncodeToString(svc.CanonicalState()); got != canonHex {
		bad = append(bad, fmt.Sprintf("canonical state differs: daemon %d hex chars, in-process %d", len(canonHex), len(got)))
	}
	return n, bad, nil
}
