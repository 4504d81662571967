"""CAP001 fixture: honest and lying remote executors."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutorCapabilities:
    """Mini twin of the real capability dataclass."""

    releases_gil: bool = False
    remote: bool = False
    requires_picklable: bool = False


class Executor:
    """Base: no claims, stub protocol methods."""

    capabilities = ExecutorCapabilities()

    def _transport_send(self, payload):
        """Protocol stub — does not count as an implementation."""
        raise NotImplementedError

    def _transport_recv(self):
        """Protocol stub."""
        raise NotImplementedError


class HonestRemote(Executor):
    """Claims remote and really implements both transports: clean."""

    capabilities = ExecutorCapabilities(releases_gil=True, remote=True)

    def _transport_send(self, payload):
        """A real sender."""
        return len(payload)

    def _transport_recv(self):
        """A real receiver."""
        return b""


class InheritsHonestly(HonestRemote):
    """Inherits both the claim and the transports: clean."""


class StubbedRemote(Executor):
    """Claims remote over both inherited stubs: CAP001, twice."""

    capabilities = ExecutorCapabilities(remote=True)  # line 50


class LyingRemote(Executor):
    """Claims remote with only one real transport: CAP001."""

    capabilities = ExecutorCapabilities(False, True, True)  # line 56

    def _transport_send(self, payload):
        """A real sender — but recv stays the inherited stub."""
        return len(payload)
