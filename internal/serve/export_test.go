package serve

// ChunkSize exposes the cache-hit stream's chunk size to the e2e tests.
const ChunkSize = chunkSize
