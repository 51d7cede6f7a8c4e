package oracle

// HeapInuse is heapInuse, for the external tests (package oracle_test,
// free to import the packages that import oracle).
var HeapInuse = heapInuse
