package analysis

// The fact store lets analyzers attach findings to types.Objects and
// read them back across function boundaries — the piece that turns the
// per-file AST checks into interprocedural analyses. Facts live for
// one package run: Run creates one store per package and hands it to
// every analyzer in sequence, so an analyzer can also consume facts a
// predecessor published (the analyzer slice order in checks.All is
// therefore part of the contract).

import (
	"go/types"
)

// Facts is a per-package fact store keyed by (object, fact name).
type Facts struct {
	m map[types.Object]map[string]any
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{m: map[types.Object]map[string]any{}}
}

// Set records fact key = val on obj, replacing any previous value.
func (f *Facts) Set(obj types.Object, key string, val any) {
	if obj == nil {
		return
	}
	m, ok := f.m[obj]
	if !ok {
		m = map[string]any{}
		f.m[obj] = m
	}
	m[key] = val
}

// Get returns the fact key attached to obj, if any.
func (f *Facts) Get(obj types.Object, key string) (any, bool) {
	if obj == nil {
		return nil, false
	}
	v, ok := f.m[obj][key]
	return v, ok
}
