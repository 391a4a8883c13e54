"""Exception types shared across the package."""


class InfiniteVelocityError(ArithmeticError):
    """Mechanical momentum requested at a turning point, where dt/dx = 0."""
