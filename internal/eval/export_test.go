package eval

// The tree-walking oracle, for differential tests in package eval_test: a
// test there may import the packages that import eval (core, peer, xrpc) and
// judge what a distributed run returns against what the tree-walker makes of
// the original query.
var (
	TreeWalk         = treeWalk
	TreeWalkFunction = treeWalkFunction
)
