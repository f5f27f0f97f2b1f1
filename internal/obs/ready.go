package obs

import "sync/atomic"

// Readiness is the process's load-balancer-facing state, distinct from
// liveness: /healthz answers "is the process up" (always 200 while the
// server runs), /readyz answers "should traffic be routed here" (503
// during journal replay and during shutdown drain, so a fronting balancer
// stops routing before state is consistent or while connections wind
// down). Batch harnesses never touch this and stay ready by default;
// cmd/admitd drives the transitions.
type Readiness int32

const (
	// ReadyServing is the default: traffic welcome.
	ReadyServing Readiness = iota
	// ReadyStarting means the process booted but has not begun recovery.
	ReadyStarting
	// ReadyRecovering means journal replay is in progress.
	ReadyRecovering
	// ReadyDraining means shutdown began; in-flight requests finish but
	// new traffic should go elsewhere.
	ReadyDraining
)

func (r Readiness) String() string {
	switch r {
	case ReadyServing:
		return "serving"
	case ReadyStarting:
		return "starting"
	case ReadyRecovering:
		return "recovering"
	case ReadyDraining:
		return "draining"
	default:
		return "readiness(?)"
	}
}

var readiness atomic.Int32

// SetReadiness publishes the process readiness state (read by /readyz).
func SetReadiness(r Readiness) { readiness.Store(int32(r)) }

// CurrentReadiness returns the published readiness state.
func CurrentReadiness() Readiness { return Readiness(readiness.Load()) }

// RegisterReadinessGauge publishes the readiness state as the numeric gauge
// process.ready_state in reg (nil means Default), so state flaps survive in
// scrape history rather than only in probe logs. The values follow the
// Readiness constants (0=serving, 1=starting, 2=recovering, 3=draining).
// Registration is deliberately explicit rather than done in init(): batch
// harnesses export deterministic metric documents and must not grow a
// wall-clock-adjacent gauge unasked; cmd/admitd opts in at boot.
func RegisterReadinessGauge(reg *Registry) {
	if reg == nil {
		reg = Default
	}
	reg.GaugeFunc("process.ready_state", func() int64 {
		return int64(CurrentReadiness())
	})
}
