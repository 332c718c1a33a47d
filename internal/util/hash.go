package util

// Hash64 is the simulator's decision hash: FNV-64a over key's bytes,
// then the murmur3 fmix64 finalizer. FNV-64a alone barely avalanches
// its final input bytes — two keys differing only in a trailing digit
// (consecutive attempt counters) differ only in their low bits — so
// the finalizer is what makes decisions keyed by "...|attempt"
// independent across attempts.
func Hash64(key string) uint64 {
	x := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 1099511628211 // FNV-64 prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashUnit maps key to a uniform draw in [0, 1) through Hash64: a
// deterministic decision (fault injection, retry jitter) that consumes
// no simulation RNG.
func HashUnit(key string) float64 {
	return float64(Hash64(key)>>11) / (1 << 53)
}
