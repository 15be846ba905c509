"""Oracle tests: production kernels against independent references."""
