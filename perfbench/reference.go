package main

// references holds the SHA-256 digest of each workload's results at the
// recorded seeds. Seed 1 is the repository's canonical seed: for fig3 and
// backfill its digests are those of the committed results/<name>.csv (a
// self-test keeps them tied). Seed 7 is held out: recorded once with the
// benchmark finished and never used while tuning it, so a later claim can
// be re-checked on data it was not developed against (the seed-7 sweep
// digests equal those of `mcexp -seed 7 -data <dir> fig3 backfill`). Runs
// at any other seed are checked for sanity and traced-versus-untraced
// identity only.
var references = map[string]map[uint64]string{
	"fig3": {
		1: "5761b70a984d129d4b6fbe6e5161cf157c8a56cb947683ecb82d09a425e906f6",
		7: "2100c54743b76dfdd686bc6bd7bf8cef394e37d8d270dd6c7b93cb7b2881d4ec",
	},
	"backfill": {
		1: "3756dd1ab301b6c689fd009d751ce7fb30ade72d0ca78a4236db0088c420a94c",
		7: "089ebe14cc15d827afc2ec5db26261b646440367ce082ed20b6a51dbc070a43b",
	},
	"drivers": {
		1: "8d8198e533447afd3239a1355bc573699d1945779dc93f7ab6d74d85211703e7",
		7: "f02c91b934332cb13aa0c5a7c4777e2efce02a9b4d8de4e315dc393d0e2b0cbf",
	},
}
