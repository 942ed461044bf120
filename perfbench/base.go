package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// digestOps is how many response bodies of a timed phase the digest
// covers: a prefix every run completes, so runs of one seed compare.
const digestOps = 1000

// base is what every workload shares: the service stack of the current
// set-up, its store when it has one, and the bookkeeping of the bodies a
// phase returned.
type base struct {
	stack     *stack
	store     *store.Store
	warmStart time.Duration // store.Open plus AttachStore in the last set-up

	// deterministic workloads print a digest of their response bodies.
	deterministic bool
	digest        hash.Hash
	digested      int
	bodyBytes     int64
	bodies        int
}

func (b *base) common() *base { return b }

func (b *base) svc() *service.Service { return b.stack.svc }

// startPhase resets the per-phase body bookkeeping.
func (b *base) startPhase() {
	b.digest = sha256.New()
	b.digested, b.bodyBytes, b.bodies = 0, 0, 0
}

// noteBody records one response body of the timed phase.
func (b *base) noteBody(body []byte) {
	b.bodyBytes += int64(len(body))
	b.bodies++
	if b.deterministic && b.digest != nil && b.digested < digestOps {
		b.digest.Write(body)
		b.digested++
	}
}

// bodyDigest returns the digest of the phase's first bodies and how many
// it covers; empty for a workload whose bodies depend on timing.
func (b *base) bodyDigest() (string, int) {
	if !b.deterministic || b.digest == nil {
		return "", 0
	}
	return hex.EncodeToString(b.digest.Sum(nil)), b.digested
}

// attachStore opens the log at path and attaches it to the service,
// timing both as the warm start.
func (b *base) attachStore(path string) error {
	start := time.Now()
	st, err := store.Open(store.Options{Path: path, Generation: b.svc().Generation()})
	if err != nil {
		return err
	}
	if err := b.svc().AttachStore(st); err != nil {
		st.Close()
		return err
	}
	b.store = st
	b.warmStart = time.Since(start)
	return nil
}

// tearDown closes the store, if any, and drops the service.
func (b *base) tearDown() error {
	var err error
	if b.store != nil {
		err = b.store.Close()
		b.store = nil
	}
	b.stack = nil
	return err
}
