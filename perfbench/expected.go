package main

// expected holds the digests of the simulated outputs for seed 1 and
// the held-out seed 7919, as the simulator produced them when the
// benchmark was defined. solo's keys are the run seeds derived from
// those two (mix(seed, i) for i < soloSeeds). A change that only
// speeds the simulator up leaves every one of them identical; one that
// changes the simulated statistics must update them and say so.
var expected = map[string]string{
	// --seed 1
	"solo seed=10451216379200822465 stats.Sim": "ed6ee727eb65bf12",
	"solo seed=13757245211066428519 stats.Sim": "9c2ccde1811d803c",
	"solo seed=17911839290282890590 stats.Sim": "6d47d6657085ded3",
	"fig4 seed=1 jsonl":                        "e9973fac2cb5bd93",
	// --seed 7919 (held out)
	"solo seed=4858657790420402514 stats.Sim":  "6182d5082fb5a024",
	"solo seed=15316099832671317032 stats.Sim": "8eaa88dd86a2cb35",
	"solo seed=277050508290116469 stats.Sim":   "45bb42ef4ad653cb",
	"fig4 seed=7919 jsonl":                     "02707e9835ef6faa",
}
