package main

// expectedDigests pins the SHA-256 of each workload's model outputs for
// the recorded seeds (DefaultSeed, HeldOutSeed): decompositions, sweep
// and batch rate points, AES comparisons and service reply bodies. A
// change that only claims speed must leave them unchanged.
var expectedDigests = map[string]map[int64]string{
	"synth_flow": {
		DefaultSeed: "ad683f43b529be87c7fe2e3411611c20d9c45c392eb13bf425c78869b732902e",
		HeldOutSeed: "225090b0412267797092328cf0e73cf2f903eaeeb4dd104bb747522880728933",
	},
	"sim_scale": {
		DefaultSeed: "4c13a38d1bbfe687baec994c48c35e35fefed59b175238f8f5a56bbac483d346",
		HeldOutSeed: "bb6b27e8581a3e0a5f68eb210f6afaee502c63089fc9240f8f8823d4d3901a7f",
	},
	"serve_mix": {
		DefaultSeed: "76fb1b18980af2f3dea0d9b349bc9c28fe92c9a0691464ed2413b3169b06ad24",
		HeldOutSeed: "a5d77bab1ebf501ed71999ebf446426e64934e2423d4206e26d80cdf07c7a217",
	},
}
