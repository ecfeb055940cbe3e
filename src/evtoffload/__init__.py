"""Energy-efficient DAG computation offloading under uncertainty."""

__version__ = "0.1.0"
