package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// lpDigest pins one formulation: the SHA-256 of its WriteLP text, its size
// and the encoding's share of it.
type lpDigest struct {
	sha              string
	vars, rows       int
	encVars, encCons int
}

func (d lpDigest) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d}", d.sha, d.vars, d.rows, d.encVars, d.encCons)
}

// wantLPDigests holds the pinned formulations of TestEncodingLPDigests,
// keyed site/encoding/objective/limiter mode (the Objective and
// RateLimiterMode values). A change that moves the LP on purpose — exact
// reductions in the formulation, canonical sticky plans — re-pins the
// entries it changes and says why beside them.
var wantLPDigests = map[string]lpDigest{
	"cp-rand/compact/obj0/lim0":     {"8d22f4cff1ba9781", 53, 60, 32, 39},
	"cp-rand/compact/obj1/lim0":     {"772f9e54e07c3987", 55, 60, 32, 39},
	"cp-rand/compact/obj2/lim0":     {"93e17971c38f03e7", 68, 60, 32, 39},
	"cp-rand/naive/obj0/lim0":       {"302c915bf63b7fe6", 28, 49, 7, 28},
	"cp-rand/naive/obj1/lim0":       {"e9540b81384e9388", 30, 49, 7, 28},
	"cp-rand/naive/obj2/lim0":       {"25e60c361fefeb7c", 43, 49, 7, 28},
	"cp-rand/sortnet/obj0/lim0":     {"d1ba6dde0d310341", 42, 63, 21, 42},
	"cp-rand/sortnet/obj1/lim0":     {"f82689e5b8d9aba1", 44, 63, 21, 42},
	"cp-rand/sortnet/obj2/lim0":     {"1f2f85b137e30cee", 57, 63, 21, 42},
	"cp/compact/obj0/lim0":          {"52752213154df1c4", 29, 33, 21, 25},
	"cp/compact/obj0/lim1":          {"3b7cc38877c7ce5e", 29, 33, 21, 25},
	"cp/compact/obj0/lim2":          {"85260d0accf93914", 29, 39, 21, 27},
	"cp/compact/obj1/lim0":          {"2afba6a00bc68b59", 31, 33, 21, 25},
	"cp/compact/obj1/lim1":          {"3964665d476ae885", 31, 33, 21, 25},
	"cp/compact/obj1/lim2":          {"4bd0942229eef641", 31, 39, 21, 27},
	"cp/compact/obj2/lim0":          {"8bbec0c3941eea1a", 34, 33, 21, 25},
	"cp/compact/obj2/lim1":          {"d208f65385a1c73b", 34, 33, 21, 25},
	"cp/compact/obj2/lim2":          {"5c770788f3d17c64", 34, 39, 21, 27},
	"cp/naive/obj0/lim0":            {"35aade620b6fb5dd", 12, 27, 4, 19},
	"cp/naive/obj0/lim1":            {"3e4524d44de6fb3f", 12, 27, 4, 19},
	"cp/naive/obj0/lim2":            {"6742bcca2be3d45e", 12, 33, 4, 21},
	"cp/naive/obj1/lim0":            {"3273158de40d8fb2", 14, 27, 4, 19},
	"cp/naive/obj1/lim1":            {"d15fc4963800cf71", 14, 27, 4, 19},
	"cp/naive/obj1/lim2":            {"7ca0885f923c9b39", 14, 33, 4, 21},
	"cp/naive/obj2/lim0":            {"ce02501649a35bfe", 17, 27, 4, 19},
	"cp/naive/obj2/lim1":            {"2555ab9358ec9347", 17, 27, 4, 19},
	"cp/naive/obj2/lim2":            {"ff9e52dd4d67477b", 17, 33, 4, 21},
	"cp/sortnet/obj0/lim0":          {"01ff419b5c67cef2", 23, 37, 15, 29},
	"cp/sortnet/obj0/lim1":          {"1f77a1e1023dff45", 23, 37, 15, 29},
	"cp/sortnet/obj0/lim2":          {"85aec07137d04b3a", 23, 43, 15, 31},
	"cp/sortnet/obj1/lim0":          {"843b7371266048ee", 25, 37, 15, 29},
	"cp/sortnet/obj1/lim1":          {"2780595b7f251e86", 25, 37, 15, 29},
	"cp/sortnet/obj1/lim2":          {"a17bfacf3418e365", 25, 43, 15, 31},
	"cp/sortnet/obj2/lim0":          {"f7ff6c5e78eedbf0", 28, 37, 15, 29},
	"cp/sortnet/obj2/lim1":          {"8ad970a3074c340c", 28, 37, 15, 29},
	"cp/sortnet/obj2/lim2":          {"e376ba05e1d75da8", 28, 43, 15, 31},
	"dp-largest/compact/obj0/lim0":  {"d38616a5e83a37cd", 42, 42, 21, 21},
	"dp-largest/compact/obj1/lim0":  {"f48b2fc4be24bda4", 43, 42, 21, 21},
	"dp-largest/compact/obj2/lim0":  {"8f09d38666027d9e", 57, 42, 21, 21},
	"dp-largest/naive/obj0/lim0":    {"57d149c7b93df00d", 21, 52, 0, 31},
	"dp-largest/naive/obj1/lim0":    {"493f2a5cf3ff24d2", 22, 52, 0, 31},
	"dp-largest/naive/obj2/lim0":    {"7f51362e4cb9f231", 36, 52, 0, 31},
	"dp-largest/sortnet/obj0/lim0":  {"da9c9b9536d38db9", 39, 54, 18, 33},
	"dp-largest/sortnet/obj1/lim0":  {"ba439794b7fbf805", 40, 54, 18, 33},
	"dp-largest/sortnet/obj2/lim0":  {"41b04c575961a9a1", 54, 54, 18, 33},
	"dp-smallest/compact/obj0/lim0": {"5f015caaf4e2b16b", 14, 14, 6, 6},
	"dp-smallest/compact/obj1/lim0": {"926c09512e999af0", 15, 14, 6, 6},
	"dp-smallest/compact/obj2/lim0": {"a3fdb8cb39ebdb05", 19, 14, 6, 6},
	"dp-smallest/naive/obj0/lim0":   {"aa3007896bd0f635", 8, 14, 0, 6},
	"dp-smallest/naive/obj1/lim0":   {"6a702741a6ed7226", 9, 14, 0, 6},
	"dp-smallest/naive/obj2/lim0":   {"f25e7ee540ddbfc7", 13, 14, 0, 6},
	"dp-smallest/sortnet/obj0/lim0": {"aba8589783c6df19", 12, 16, 4, 8},
	"dp-smallest/sortnet/obj1/lim0": {"a92de0a5743bea13", 13, 16, 4, 8},
	"dp-smallest/sortnet/obj2/lim0": {"ed04f629aaf442ca", 17, 16, 4, 8},
	"dp-switch/compact/obj0/lim0":   {"85b092385da6af60", 33, 33, 12, 12},
	"dp-switch/compact/obj1/lim0":   {"4d697c190b6b001a", 34, 33, 12, 12},
	"dp-switch/compact/obj2/lim0":   {"6756e24706b99cfb", 48, 33, 12, 12},
	"dp-switch/naive/obj0/lim0":     {"3afcf85439b04bc3", 21, 77, 0, 56},
	"dp-switch/naive/obj1/lim0":     {"40fd56cf3cf515ec", 22, 77, 0, 56},
	"dp-switch/naive/obj2/lim0":     {"dcb6c7f55330c298", 36, 77, 0, 56},
	"dp-switch/sortnet/obj0/lim0":   {"abc480a9fdbca4f1", 33, 42, 12, 21},
	"dp-switch/sortnet/obj1/lim0":   {"6828f634b3f1f1e6", 34, 42, 12, 21},
	"dp-switch/sortnet/obj2/lim0":   {"feca30738403c0a2", 48, 42, 12, 21},
	"du-rand/compact/obj1/lim0":     {"1a0092eaab84d35e", 69, 67, 46, 46},
	// Naive emits demand uncertainty's bound as explicit subsets; before
	// the encodings shared one emitter it fell back to the bubble network
	// here (then {"e8f63ca13985b183", 75, 108, 52, 87}).
	"du-rand/naive/obj1/lim0":   {"0a45fff17d3b7278", 23, 45, 0, 24},
	"du-rand/sortnet/obj1/lim0": {"e8f63ca13985b183", 75, 108, 52, 87},
	"du/compact/obj1/lim0":      {"add2f7d367702959", 19, 18, 11, 11},
	// As du-rand/naive (was {"6371fda33ce9d40f", 14, 19, 6, 12}).
	"du/naive/obj1/lim0":   {"e56c66dad2720d1f", 8, 13, 0, 6},
	"du/sortnet/obj1/lim0": {"6371fda33ce9d40f", 14, 19, 6, 12},
	// The shapes of moreDigestSites, pinned before the formulation became
	// index-addressed (flow and link slices in place of maps).
	"down-cp/compact/obj0/lim0":   {"d90c7f5388d11852", 59, 59, 38, 45},
	"down-cp/compact/obj0/lim1":   {"179b9c6f34d4a026", 59, 59, 38, 45},
	"down-cp/compact/obj0/lim2":   {"16475c1ba4bdd718", 59, 72, 38, 51},
	"down-cp/compact/obj1/lim0":   {"05bf6fb334a373d6", 61, 59, 38, 45},
	"down-cp/compact/obj1/lim1":   {"9e6d2ef0a9286f5b", 61, 59, 38, 45},
	"down-cp/compact/obj1/lim2":   {"f681c6d41f888910", 61, 72, 38, 51},
	"down-cp/compact/obj2/lim0":   {"a5644b9f32f4e59f", 71, 59, 38, 45},
	"down-cp/compact/obj2/lim1":   {"154d1bcee88f2805", 71, 59, 38, 45},
	"down-cp/compact/obj2/lim2":   {"85bbf3b59c834d22", 71, 72, 38, 51},
	"down-cp/naive/obj0/lim0":     {"f415cc5e7e71e184", 28, 49, 7, 35},
	"down-cp/naive/obj0/lim1":     {"5a91baa1b09a3f7a", 28, 49, 7, 35},
	"down-cp/naive/obj0/lim2":     {"952002069174f04f", 28, 62, 7, 41},
	"down-cp/naive/obj1/lim0":     {"da47e1d7cbb233e4", 30, 49, 7, 35},
	"down-cp/naive/obj1/lim1":     {"f04f116d0e4805cd", 30, 49, 7, 35},
	"down-cp/naive/obj1/lim2":     {"96df4d45a0b9351f", 30, 62, 7, 41},
	"down-cp/naive/obj2/lim0":     {"c500056f2bbc8ff5", 40, 49, 7, 35},
	"down-cp/naive/obj2/lim1":     {"60f6905363bf7df2", 40, 49, 7, 35},
	"down-cp/naive/obj2/lim2":     {"fd8fadf1bc49cf36", 40, 62, 7, 41},
	"down-cp/sortnet/obj0/lim0":   {"b2996c2b2a01beaa", 46, 64, 25, 50},
	"down-cp/sortnet/obj0/lim1":   {"383d27765de33fff", 46, 64, 25, 50},
	"down-cp/sortnet/obj0/lim2":   {"98683e1e6b911430", 46, 77, 25, 56},
	"down-cp/sortnet/obj1/lim0":   {"a1440a940ef4bff4", 48, 64, 25, 50},
	"down-cp/sortnet/obj1/lim1":   {"7a36fa023c68f9ff", 48, 64, 25, 50},
	"down-cp/sortnet/obj1/lim2":   {"1bea91ec43167a4e", 48, 77, 25, 56},
	"down-cp/sortnet/obj2/lim0":   {"410b9585e3da00d7", 58, 64, 25, 50},
	"down-cp/sortnet/obj2/lim1":   {"495c38b3bf76b8e2", 58, 64, 25, 50},
	"down-cp/sortnet/obj2/lim2":   {"b15153db4f64891a", 58, 77, 25, 56},
	"down-dp/compact/obj0/lim0":   {"7187ad32d747d510", 27, 20, 6, 6},
	"down-dp/compact/obj1/lim0":   {"1e9e04194be6080c", 28, 20, 6, 6},
	"down-dp/compact/obj2/lim0":   {"a6b0a95477fc434a", 35, 20, 6, 6},
	"down-dp/naive/obj0/lim0":     {"b4ce94ddf451b43f", 21, 21, 0, 7},
	"down-dp/naive/obj1/lim0":     {"8f1ae5664ce39109", 22, 21, 0, 7},
	"down-dp/naive/obj2/lim0":     {"77e7707f45865fa9", 29, 21, 0, 7},
	"down-dp/sortnet/obj0/lim0":   {"78e23e58b1c3b26a", 25, 22, 4, 8},
	"down-dp/sortnet/obj1/lim0":   {"2b44cf5b7580bfab", 26, 22, 4, 8},
	"down-dp/sortnet/obj2/lim0":   {"60c6b4e76bb9cb32", 33, 22, 4, 8},
	"lnet6-021/compact/obj0/lim0": {"92fa4c7156ab9875", 291, 243, 145, 145},
	"lnet6-021/compact/obj1/lim0": {"c2c3737970fdaebc", 292, 243, 145, 145},
	"lnet6-021/compact/obj2/lim0": {"0d83439cb07172e3", 360, 243, 145, 145},
	"lnet6-021/naive/obj0/lim0":   {"db4014a08312f61b", 146, 2682, 0, 2584},
	"lnet6-021/naive/obj1/lim0":   {"a52260bcb79b4c28", 147, 2682, 0, 2584},
	"lnet6-021/naive/obj2/lim0":   {"1b62062ebb75742a", 215, 2682, 0, 2584},
	"lnet6-021/sortnet/obj0/lim0": {"10d1bc812ba8de6d", 320, 388, 174, 290},
	"lnet6-021/sortnet/obj1/lim0": {"08f8339ddea9fafd", 321, 388, 174, 290},
	"lnet6-021/sortnet/obj2/lim0": {"d8c6ae97fa174d1b", 389, 388, 174, 290},
	"lnet6-210/compact/obj0/lim0": {"194b56ca9e03ab41", 387, 368, 241, 270},
	"lnet6-210/compact/obj0/lim1": {"c5f46ee1e6624bba", 387, 368, 241, 270},
	"lnet6-210/compact/obj0/lim2": {"f34593a6bc93f862", 405, 450, 255, 318},
	"lnet6-210/compact/obj1/lim0": {"bdef5c5c929bbc38", 389, 368, 241, 270},
	"lnet6-210/compact/obj1/lim1": {"b0cf5bb666a4f022", 389, 368, 241, 270},
	"lnet6-210/compact/obj1/lim2": {"6f0cfa765838ace5", 407, 450, 255, 318},
	"lnet6-210/compact/obj2/lim0": {"7208acc780138aa0", 456, 368, 241, 270},
	"lnet6-210/compact/obj2/lim1": {"fe0fc8a5e3819968", 456, 368, 241, 270},
	"lnet6-210/compact/obj2/lim2": {"eb824447a0abae7c", 474, 450, 255, 318},
	"lnet6-210/naive/obj0/lim0":   {"093d8e413f22b73e", 175, 404, 29, 306},
	"lnet6-210/naive/obj0/lim1":   {"028de46881a29d73", 175, 404, 29, 306},
	"lnet6-210/naive/obj0/lim2":   {"82b274cf72bd66a3", 183, 485, 33, 353},
	"lnet6-210/naive/obj1/lim0":   {"b7c276bcf619ad84", 177, 404, 29, 306},
	"lnet6-210/naive/obj1/lim1":   {"19df5bac61692165", 177, 404, 29, 306},
	"lnet6-210/naive/obj1/lim2":   {"d59780da373c2e82", 185, 485, 33, 353},
	"lnet6-210/naive/obj2/lim0":   {"388cef16c45ccc9f", 244, 404, 29, 306},
	"lnet6-210/naive/obj2/lim1":   {"3f31f13098341aa0", 244, 404, 29, 306},
	"lnet6-210/naive/obj2/lim2":   {"fde819fe4d5ab1c5", 252, 485, 33, 353},
	"lnet6-210/sortnet/obj0/lim0": {"a290806aee1406e4", 387, 519, 241, 421},
	"lnet6-210/sortnet/obj0/lim1": {"ca333c2a3e1b0f4b", 387, 519, 241, 421},
	"lnet6-210/sortnet/obj0/lim2": {"595dd72e848d7e5f", 408, 612, 258, 480},
	"lnet6-210/sortnet/obj1/lim0": {"b18e90141ae33bdf", 389, 519, 241, 421},
	"lnet6-210/sortnet/obj1/lim1": {"84b2986272d32a36", 389, 519, 241, 421},
	"lnet6-210/sortnet/obj1/lim2": {"f2e0e7ad81915893", 410, 612, 258, 480},
	"lnet6-210/sortnet/obj2/lim0": {"a5bdfbe3b2fb3787", 456, 519, 241, 421},
	"lnet6-210/sortnet/obj2/lim1": {"b0e908cd2c6b24d1", 456, 519, 241, 421},
	"lnet6-210/sortnet/obj2/lim2": {"4c0f53f7edc483d7", 477, 612, 258, 480},
	"mice-cp/compact/obj0/lim0":   {"a3c90470483f0696", 57, 65, 41, 46},
	"mice-cp/compact/obj0/lim1":   {"213dbcb061362816", 57, 65, 41, 46},
	"mice-cp/compact/obj0/lim2":   {"734b664d717f1070", 74, 94, 53, 66},
	"mice-cp/compact/obj1/lim0":   {"dcdd39e764fea2a2", 59, 65, 41, 46},
	"mice-cp/compact/obj1/lim1":   {"bee872dd92b1201c", 59, 65, 41, 46},
	"mice-cp/compact/obj1/lim2":   {"356e9c121b74dd80", 76, 94, 53, 66},
	"mice-cp/compact/obj2/lim0":   {"2a5c9190fcbbdc46", 72, 65, 41, 46},
	"mice-cp/compact/obj2/lim1":   {"c2173b2199758bd4", 72, 65, 41, 46},
	"mice-cp/compact/obj2/lim2":   {"67fc1591a62a987e", 89, 94, 53, 66},
	"mice-cp/naive/obj0/lim0":     {"e5f8ee48abb9e3e6", 21, 60, 5, 41},
	"mice-cp/naive/obj0/lim1":     {"6b22d02b3bec3ea1", 21, 60, 5, 41},
	"mice-cp/naive/obj0/lim2":     {"3e4b8f820d3e0fcc", 28, 90, 7, 62},
	"mice-cp/naive/obj1/lim0":     {"71e695219b505125", 23, 60, 5, 41},
	"mice-cp/naive/obj1/lim1":     {"f01934537a7bbd1b", 23, 60, 5, 41},
	"mice-cp/naive/obj1/lim2":     {"6647a74bd697239c", 30, 90, 7, 62},
	"mice-cp/naive/obj2/lim0":     {"768bb0719efa3e76", 36, 60, 5, 41},
	"mice-cp/naive/obj2/lim1":     {"7fb8a317b340d8dc", 36, 60, 5, 41},
	"mice-cp/naive/obj2/lim2":     {"5e868a2830bc08e7", 43, 90, 7, 62},
	"mice-cp/sortnet/obj0/lim0":   {"14bf6e6a0bba8510", 47, 77, 31, 58},
	"mice-cp/sortnet/obj0/lim1":   {"37802cd61326c0e3", 47, 77, 31, 58},
	"mice-cp/sortnet/obj0/lim2":   {"760ebbfeef84651c", 63, 112, 42, 84},
	"mice-cp/sortnet/obj1/lim0":   {"2f1468969193b11d", 49, 77, 31, 58},
	"mice-cp/sortnet/obj1/lim1":   {"f28b0a6ee9e800d9", 49, 77, 31, 58},
	"mice-cp/sortnet/obj1/lim2":   {"214e55170bcd4302", 65, 112, 42, 84},
	"mice-cp/sortnet/obj2/lim0":   {"4bf298dcec8e3127", 62, 77, 31, 58},
	"mice-cp/sortnet/obj2/lim1":   {"250b912f1688984e", 62, 77, 31, 58},
	"mice-cp/sortnet/obj2/lim2":   {"9848e2fe881cc39e", 78, 112, 42, 84},
	"mice-dp/compact/obj0/lim0":   {"c48487ee2e621fd3", 26, 28, 8, 8},
	"mice-dp/compact/obj1/lim0":   {"7962edeaca405fb9", 27, 28, 8, 8},
	"mice-dp/compact/obj2/lim0":   {"c26b1862ceff82c2", 41, 28, 8, 8},
	"mice-dp/naive/obj0/lim0":     {"b100ddb7c52044ae", 18, 58, 0, 38},
	"mice-dp/naive/obj1/lim0":     {"3d454233fa01ed20", 19, 58, 0, 38},
	"mice-dp/naive/obj2/lim0":     {"7e4850fe20562eac", 33, 58, 0, 38},
	"mice-dp/sortnet/obj0/lim0":   {"0a936250088ae86b", 26, 34, 8, 14},
	"mice-dp/sortnet/obj1/lim0":   {"8fa17214820f6f30", 27, 34, 8, 14},
	"mice-dp/sortnet/obj2/lim0":   {"fbb7e981bd55d7fb", 41, 34, 8, 14},
	"no-tunnel/compact/obj0/lim0": {"e0090d75a3c9587d", 29, 33, 21, 25},
	"no-tunnel/compact/obj1/lim0": {"e993594773ff0000", 31, 33, 21, 25},
	"no-tunnel/compact/obj2/lim0": {"efc139904a4d2b81", 34, 33, 21, 25},
	"no-tunnel/naive/obj0/lim0":   {"26380a3e7b29f527", 12, 28, 4, 20},
	"no-tunnel/naive/obj1/lim0":   {"694eaaf97780e0f4", 14, 28, 4, 20},
	"no-tunnel/naive/obj2/lim0":   {"c73fe45611e98856", 17, 28, 4, 20},
	"no-tunnel/sortnet/obj0/lim0": {"a3b927b0589951da", 22, 36, 14, 28},
	"no-tunnel/sortnet/obj1/lim0": {"37595e66cb4443b5", 24, 36, 14, 28},
	"no-tunnel/sortnet/obj2/lim0": {"3aacadf7cdf83480", 27, 36, 14, 28},
	"rates/compact/obj0/lim0":     {"6cef4b6143f32c81", 42, 42, 21, 21},
	"rates/compact/obj1/lim0":     {"19be625c9a751613", 43, 42, 21, 21},
	"rates/compact/obj2/lim0":     {"168a29b958e296f0", 57, 42, 21, 21},
	"rates/naive/obj0/lim0":       {"3becb0bcc5f8d3fd", 21, 52, 0, 31},
	"rates/naive/obj1/lim0":       {"fc382cc92478d112", 22, 52, 0, 31},
	"rates/naive/obj2/lim0":       {"ed171e38aa16a704", 36, 52, 0, 31},
	"rates/sortnet/obj0/lim0":     {"d28b4aa3ec9eb3e6", 39, 54, 18, 33},
	"rates/sortnet/obj1/lim0":     {"0890b890af109830", 40, 54, 18, 33},
	"rates/sortnet/obj2/lim0":     {"46d8c0b9c326fae0", 54, 54, 18, 33},
	"uncertain/compact/obj0/lim0": {"dd2b374c085da2dd", 73, 79, 52, 58},
	"uncertain/compact/obj0/lim1": {"070d2da943880891", 73, 79, 52, 58},
	"uncertain/compact/obj0/lim2": {"f67ff80f2621087a", 73, 90, 52, 63},
	"uncertain/compact/obj1/lim0": {"b5a9dcad040a3b28", 75, 79, 52, 58},
	"uncertain/compact/obj1/lim1": {"09c7dceee7130b76", 75, 79, 52, 58},
	"uncertain/compact/obj1/lim2": {"f4555257688d8ef4", 75, 90, 52, 63},
	"uncertain/compact/obj2/lim0": {"f6424dc83b112dfe", 88, 79, 52, 58},
	"uncertain/compact/obj2/lim1": {"4c10e3a92fa5b11c", 88, 79, 52, 58},
	"uncertain/compact/obj2/lim2": {"5c9ed7d33ecf887d", 88, 90, 52, 63},
	"uncertain/naive/obj0/lim0":   {"92cefa9af543cb28", 27, 78, 6, 57},
	"uncertain/naive/obj0/lim1":   {"03dfd83babae81b4", 27, 78, 6, 57},
	"uncertain/naive/obj0/lim2":   {"8d13d096aa390510", 27, 89, 6, 62},
	"uncertain/naive/obj1/lim0":   {"cc795f79366efa3b", 29, 78, 6, 57},
	"uncertain/naive/obj1/lim1":   {"c923eb1e6c471446", 29, 78, 6, 57},
	"uncertain/naive/obj1/lim2":   {"9277d6a1147244b0", 29, 89, 6, 62},
	"uncertain/naive/obj2/lim0":   {"71d181460152a547", 42, 78, 6, 57},
	"uncertain/naive/obj2/lim1":   {"c29c277f06a51525", 42, 78, 6, 57},
	"uncertain/naive/obj2/lim2":   {"6a5faecb47939bd8", 42, 89, 6, 62},
	"uncertain/sortnet/obj0/lim0": {"5786fe4cd5e9a851", 59, 94, 38, 73},
	"uncertain/sortnet/obj0/lim1": {"f0fb3b2d78cf9cf1", 59, 94, 38, 73},
	"uncertain/sortnet/obj0/lim2": {"704dcee39a2ae4f4", 59, 105, 38, 78},
	"uncertain/sortnet/obj1/lim0": {"9dbe945642fa28cd", 61, 94, 38, 73},
	"uncertain/sortnet/obj1/lim1": {"d74f662f13239ddf", 61, 94, 38, 73},
	"uncertain/sortnet/obj1/lim2": {"c2592861147264f8", 61, 105, 38, 78},
	"uncertain/sortnet/obj2/lim0": {"c0ebe1c92b41dc02", 74, 94, 38, 73},
	"uncertain/sortnet/obj2/lim1": {"2d781e1312e62b73", 74, 94, 38, 73},
	"uncertain/sortnet/obj2/lim2": {"8bf45906f2b1745d", 74, 105, 38, 78},
}

// wantUpdateDigests pins the PlanUpdate step plans of
// TestEncodingLPDigests, as a SHA-256 over every step's rates and
// allocations in Float64bits.
var wantUpdateDigests = map[string]string{
	"fig/compact/kc1":  "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/compact/kc2":  "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"fig/naive/kc1":    "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/naive/kc2":    "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"fig/sortnet/kc1":  "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/sortnet/kc2":  "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"rand/compact/kc1": "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
	"rand/naive/kc1":   "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
	"rand/sortnet/kc1": "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
}

// TestEncodingLPDigests pins the LP that every bounded-M-sum site emits
// under each encoding: the data plane's smallest-τ and
// largest-(|T|−τ) forms, the control plane (per rate-limiter mode) and
// demand uncertainty (MinMLU only, the one objective it accepts), each
// under MaxThroughput, MinMLU and PlanCapacity where the site allows it. It
// also pins the multi-step update plans, whose per-step LPs carry the
// fourth M-sum site.
func TestEncodingLPDigests(t *testing.T) {
	fx := newFig25(t)
	figPrev := NewState()
	figPrev.Rate[fx.f24], figPrev.Alloc[fx.f24] = 10, []float64{7, 3}
	figPrev.Rate[fx.f34], figPrev.Alloc[fx.f34] = 10, []float64{7, 3}
	figDem := demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10}

	rnet, rtun, rflows := randomNetwork(rand.New(rand.NewSource(7)), 7, 6)
	rdem := demand.Matrix{}
	for i, f := range rflows {
		rdem[f] = 1 + float64(i)
	}
	rprev, _, err := NewSolver(rnet, rtun, Options{}).Solve(Input{Demands: rdem})
	if err != nil {
		t.Fatal(err)
	}

	all := []Objective{MaxThroughput, MinMLU, PlanCapacity}
	synced := []RateLimiterMode{LimitersSynced}
	modes := []RateLimiterMode{LimitersSynced, LimitersOrdered, LimitersIndependent}
	sites := []digestSite{
		{name: "dp-smallest", fig: true, in: Input{Demands: figDem, Prot: Protection{Ke: 1}}, objs: all, modes: synced},
		{name: "dp-largest", in: Input{Demands: rdem, Prot: Protection{Ke: 1}}, objs: all, modes: synced},
		{name: "dp-switch", in: Input{Demands: rdem, Prot: Protection{Ke: 1, Kv: 1}}, objs: all, modes: synced},
		{name: "cp", fig: true, in: Input{Demands: figDem, Prot: Protection{Kc: 2, Ke: 1}, Prev: figPrev}, objs: all, modes: modes},
		{name: "cp-rand", in: Input{Demands: rdem, Prot: Protection{Kc: 1}, Prev: rprev}, objs: all, modes: synced},
		{name: "du", fig: true, in: Input{Demands: demand.Matrix{fx.f24: 8, fx.f34: 8},
			Demand: DemandUncertainty{Count: 1, Factor: 1.5}}, objs: []Objective{MinMLU}, modes: synced},
		{name: "du-rand", in: Input{Demands: rdem, Demand: DemandUncertainty{Count: 2, Factor: 2}},
			objs: []Objective{MinMLU}, modes: synced},
	}
	// dp-largest must reach the form it is named for (dp-smallest's
	// Fig 2–5 flows have τ = 1 of 2 tunnels).
	largest := false
	for _, f := range rflows {
		p, q := rtun.PQ(f, nil)
		n := len(rtun.Tunnels(f))
		tau := n - sites[1].in.Prot.Ke*p - sites[1].in.Prot.Kv*q
		largest = largest || (tau > 0 && tau > n-tau)
	}
	if !largest {
		t.Fatal("dp-largest reaches no largest-(|T|−τ) form")
	}
	sites = append(sites, moreDigestSites(t, figDem, figPrev, rtun, rflows, rdem, rprev)...)

	got := map[string]lpDigest{}
	for _, st := range sites {
		for _, enc := range []Encoding{Compact, SortNet, Naive} {
			for _, obj := range st.objs {
				for _, mode := range st.modes {
					net, tun := rnet, rtun
					switch {
					case st.net != nil:
						net, tun = st.net, st.tun
					case st.fig:
						net, tun = fx.net, fx.tun
					}
					s := NewSolver(net, tun, Options{Encoding: enc, Objective: obj, RateLimiter: mode, MiceFraction: st.mice})
					b := scratchBuilder(t, s, st.in)
					sum := sha256.Sum256(modelBytes(t, b.model))
					key := fmt.Sprintf("%s/%v/obj%d/lim%d", st.name, enc, obj, mode)
					got[key] = lpDigest{fmt.Sprintf("%x", sum[:8]), b.model.NumVars(), b.model.NumRows(), b.encVars, b.encCons}
				}
			}
		}
	}

	// PlanUpdate: the Fig 3 transition at kc = 1 and 2 towards the
	// FFC-TE target, and a random kc = 1 chain.
	gotUpd := map[string]string{}
	updPrev := figPrev.Clone()
	updPrev.Rate[fx.f14], updPrev.Alloc[fx.f14] = 0, []float64{0}
	rdem2 := demand.Matrix{}
	for i, f := range rflows {
		rdem2[f] = 4 * float64(len(rflows)-i)
	}
	for _, enc := range []Encoding{Compact, SortNet, Naive} {
		s := NewSolver(fx.net, fx.tun, Options{Encoding: enc})
		for _, kc := range []int{1, 2} {
			target, _, err := s.Solve(Input{Demands: figDem, Prot: Protection{Kc: kc}, Prev: updPrev})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := s.PlanUpdate(updPrev, target, kc, 8)
			if err != nil {
				t.Fatalf("%v kc=%d: %v", enc, kc, err)
			}
			gotUpd[fmt.Sprintf("fig/%v/kc%d", enc, kc)] = planDigest(plan)
		}
		rs := NewSolver(rnet, rtun, Options{Encoding: enc})
		target, _, err := rs.Solve(Input{Demands: rdem2})
		if err != nil {
			t.Fatal(err)
		}
		// This chain stalls after its third LP; the steps it took are
		// pinned all the same.
		plan, _ := rs.PlanUpdate(rprev, target, 1, 6)
		gotUpd[fmt.Sprintf("rand/%v/kc1", enc)] = planDigest(plan)
	}

	var diff []string
	for _, k := range sortedKeys(got) {
		if want, ok := wantLPDigests[k]; !ok || want != got[k] {
			diff = append(diff, fmt.Sprintf("\t%q: %v,", k, got[k]))
		}
	}
	for _, k := range sortedKeys(gotUpd) {
		if want, ok := wantUpdateDigests[k]; !ok || want != gotUpd[k] {
			diff = append(diff, fmt.Sprintf("\t%q: %q,", k, gotUpd[k]))
		}
	}
	if len(diff) > 0 || len(got) != len(wantLPDigests) || len(gotUpd) != len(wantUpdateDigests) {
		t.Fatalf("%d of %d pinned formulations moved (pinned %d LPs, %d plans); got:\n%s",
			len(diff), len(got)+len(gotUpd), len(wantLPDigests), len(wantUpdateDigests), strings.Join(diff, "\n"))
	}
}

// digestSite is one formulation shape of TestEncodingLPDigests, built
// under every encoding × objs × modes.
type digestSite struct {
	name  string
	fig   bool // the Fig 2–5 fixture; otherwise the random network
	in    Input
	objs  []Objective
	modes []RateLimiterMode
	// net and tun override the fig/random choice; mice sets
	// Options.MiceFraction.
	net  *topology.Network
	tun  *tunnel.Set
	mice float64
}

// planDigest hashes an update plan's steps bit for bit, in flow order.
func planDigest(p *UpdatePlan) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, st := range p.Steps {
		for _, f := range tunnel.SortedFlows(st.Rate) {
			put(st.Rate[f])
			for _, a := range st.Alloc[f] {
				put(a)
			}
		}
		h.Write([]byte{'|'})
	}
	return fmt.Sprintf("%d steps, %d LPs, %x", len(p.Steps), p.Solves, h.Sum(nil)[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// moreDigestSites returns the shapes the M-sum sites above leave out: §6
// mice under the data and control planes, down links and switches, a §5.6
// uncertain flow, rate caps / floors / fixings, flows without tunnels and
// a 6-site L-Net with mice.
func moreDigestSites(t *testing.T, figDem demand.Matrix, figPrev *State,
	rtun *tunnel.Set, rflows []tunnel.Flow, rdem demand.Matrix, rprev *State) []digestSite {
	t.Helper()
	all := []Objective{MaxThroughput, MinMLU, PlanCapacity}
	synced := []RateLimiterMode{LimitersSynced}
	modes := []RateLimiterMode{LimitersSynced, LimitersOrdered, LimitersIndependent}

	// One link and one intermediate switch, each on some tunnel.
	downLink := rtun.Tunnels(rflows[0])[0].Links[0]
	downSw := topology.SwitchID(-1)
	for _, f := range rflows[1:] {
		for _, tn := range rtun.Tunnels(f) {
			if len(tn.Switches) > 2 && downSw < 0 {
				downSw = tn.Switches[1]
			}
		}
	}
	if downSw < 0 {
		t.Fatal("no tunnel has an intermediate switch")
	}
	down := Input{Demands: rdem, Prot: Protection{Kc: 1, Ke: 1}, Prev: rprev,
		DownLinks:    map[topology.LinkID]bool{downLink: true},
		DownSwitches: map[topology.SwitchID]bool{downSw: true}}

	older := make([]float64, len(rtun.Tunnels(rflows[0])))
	older[len(older)-1] = rprev.Rate[rflows[0]] + 1
	uncertain := Input{Demands: rdem, Prot: Protection{Kc: 1, Ke: 1}, Prev: rprev,
		Uncertain: map[tunnel.Flow]Uncertain{rflows[0]: {AllocOlder: older, RateOlder: older[len(older)-1]}}}

	rates := Input{Demands: rdem, Prot: Protection{Ke: 1},
		RateCaps:   map[tunnel.Flow]float64{rflows[1]: 1.5, rflows[4]: 100},
		RateFloors: map[tunnel.Flow]float64{rflows[2]: 1, rflows[5]: 100},
		FixedRates: map[tunnel.Flow]float64{rflows[3]: 2}}

	// A flow the layout gave no tunnel and one it never saw: both stay
	// out of the LP.
	nt := newFig25(t)
	orphan := tunnel.Flow{Src: nt.s1, Dst: nt.s3}
	nt.tun.Add(orphan)
	ntDem := figDem.Clone()
	ntDem[orphan] = 5
	ntDem[tunnel.Flow{Src: nt.s4, Dst: nt.s1}] = 5

	lnet := topology.LNet(topology.LNetConfig{Sites: 6}, rand.New(rand.NewSource(5)))
	lset, lseries := buildFixture(t, lnet, 2, 5)
	lprev, _, err := NewSolver(lnet, lset, Options{MiceFraction: 0.01}).Solve(Input{Demands: lseries[0]})
	if err != nil {
		t.Fatal(err)
	}

	return []digestSite{
		{name: "mice-dp", in: Input{Demands: rdem, Prot: Protection{Ke: 1, Kv: 1}}, objs: all, modes: synced, mice: 0.15},
		{name: "mice-cp", in: Input{Demands: rdem, Prot: Protection{Kc: 2, Ke: 1}, Prev: rprev},
			objs: all, modes: modes, mice: 0.15},
		{name: "down-dp", in: Input{Demands: rdem, Prot: Protection{Ke: 1},
			DownLinks: down.DownLinks, DownSwitches: down.DownSwitches}, objs: all, modes: synced},
		{name: "down-cp", in: down, objs: all, modes: modes, mice: 0.15},
		{name: "uncertain", in: uncertain, objs: all, modes: modes},
		{name: "rates", in: rates, objs: all, modes: synced},
		{name: "no-tunnel", in: Input{Demands: ntDem, Prot: Protection{Kc: 1, Ke: 1}, Prev: figPrev},
			objs: all, modes: synced, net: nt.net, tun: nt.tun},
		{name: "lnet6-021", in: Input{Demands: lseries[1], Prot: Protection{Ke: 2, Kv: 1}},
			objs: all, modes: synced, net: lnet, tun: lset, mice: 0.01},
		{name: "lnet6-210", in: Input{Demands: lseries[1], Prot: Protection{Kc: 2, Ke: 1}, Prev: lprev},
			objs: all, modes: modes, net: lnet, tun: lset, mice: 0.01},
	}
}
