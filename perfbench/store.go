package main

import (
	"sync/atomic"

	"repro/internal/pipeline"
)

// countingStore is a pipeline.Store that counts lookups and hits on the
// way to an in-memory store.
type countingStore struct {
	inner      *pipeline.MemoryStore
	gets, hits atomic.Int64
}

func newCountingStore() *countingStore {
	return &countingStore{inner: pipeline.NewMemoryStore()}
}

// Get implements pipeline.Store.
func (s *countingStore) Get(key pipeline.ResultKey) (*pipeline.Phase2Report, bool) {
	s.gets.Add(1)
	rep, ok := s.inner.Get(key)
	if ok {
		s.hits.Add(1)
	}
	return rep, ok
}

// Put implements pipeline.Store.
func (s *countingStore) Put(key pipeline.ResultKey, rep *pipeline.Phase2Report) {
	s.inner.Put(key, rep)
}
