package main

import (
	"runtime"
	"time"

	hetrta "repro"
	"repro/internal/resilience"
	"repro/internal/service"
)

// exactBudget is the exact stage's fixed expansion budget. The stage has
// no wall-clock slice, so which reports degrade never depends on machine
// speed.
const exactBudget = 5_000

// stack is one service wired the way cmd/dagrtad wires it for
// `-platform 4+1 -bounds rhom,rhet` (plus `-sim -exact -budget` when exact
// is set), with the daemon's default overload protection. The analyzer and
// its pieces are kept so the traced run can replay the stages the service
// ran.
type stack struct {
	svc       *service.Service
	an        *hetrta.Analyzer
	plat      hetrta.Platform
	bounds    []hetrta.Bound
	exact     bool
	exactOpts hetrta.ExactOptions
}

func newStack(exact bool, cacheEntries int) (*stack, error) {
	plat, err := hetrta.ParsePlatform("4+1")
	if err != nil {
		return nil, err
	}
	st := &stack{plat: plat, bounds: []hetrta.Bound{hetrta.RhomBound(), hetrta.RhetBound()}, exact: exact}
	opts := []hetrta.Option{hetrta.WithPlatform(plat), hetrta.WithBounds(st.bounds...)}
	if exact {
		st.exactOpts = hetrta.ExactOptions{MaxExpansions: exactBudget, Parallelism: runtime.GOMAXPROCS(0)}
		opts = append(opts,
			hetrta.WithPolicy(hetrta.BreadthFirst),
			hetrta.WithExactOptions(st.exactOpts),
			hetrta.WithDegradation(hetrta.DegradeOptions{}))
	}
	if st.an, err = hetrta.NewAnalyzer(opts...); err != nil {
		return nil, err
	}
	st.svc, err = service.New(st.an, service.Options{
		CacheEntries: cacheEntries,
		// The daemon's flag defaults: -max-queue 64, -retry-after 1s, and
		// zero (the primitive's default) for everything else.
		Resilience: &service.ResilienceOptions{
			Limiter: resilience.LimiterOptions{MaxQueue: 64, RetryAfter: time.Second},
		},
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
