//go:build hpcctree

package nx

// treeBuild makes the tree path every run's default engine, so a whole
// program can be checked against the golden digests on the reference.
const treeBuild = true
