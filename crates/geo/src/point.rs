//! Planar points and vectors (meters, meters/second).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A position in the plane, in meters.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

/// A displacement or velocity in the plane (meters or meters/second).
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance — prefer this in hot loops (range tests)
    /// to avoid the sqrt.
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// True if `other` lies within `range` meters (inclusive).
    #[inline]
    pub fn within_range(self, other: Point2, range: f64) -> bool {
        self.distance_sq(other) <= range * range
    }

    /// Linear interpolation: `self` at t=0, `other` at t=1.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Component-wise clamp into the rectangle `[0, w] x [0, h]`.
    #[inline]
    pub fn clamp_to(self, w: f64, h: f64) -> Point2 {
        Point2::new(self.x.clamp(0.0, w), self.y.clamp(0.0, h))
    }

    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm (speed, for a velocity vector).
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in the same direction; `Vec2::ZERO` if the norm is zero.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            Vec2::new(self.x / n, self.y / n)
        }
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, v: Vec2) -> Point2 {
        Point2::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    #[inline]
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, v: Vec2) -> Point2 {
        Point2::new(self.x - v.x, self.y - v.y)
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, other: Point2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, other: Vec2) {
        self.x -= other.x;
        self.y -= other.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Debug for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Debug for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new(3.0, 4.0);
        let b = Point2::new(0.0, 0.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn within_range_is_inclusive() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(250.0, 0.0);
        assert!(a.within_range(b, 250.0));
        assert!(!a.within_range(b, 249.999));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, -10.0));
    }

    #[test]
    fn vector_algebra() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.normalized().norm(), 1.0);
        assert_eq!((v * 2.0).norm(), 10.0);
        assert_eq!((v / 2.0), Vec2::new(1.5, 2.0));
        assert_eq!(-v, Vec2::new(-3.0, -4.0));
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn point_vector_motion() {
        let p = Point2::new(1.0, 1.0);
        let v = Vec2::new(2.0, -1.0);
        assert_eq!(p + v, Point2::new(3.0, 0.0));
        assert_eq!(p - v, Point2::new(-1.0, 2.0));
        assert_eq!((p + v) - p, v);
    }

    #[test]
    fn clamp_to_field() {
        let p = Point2::new(-5.0, 1200.0);
        assert_eq!(p.clamp_to(1000.0, 1000.0), Point2::new(0.0, 1000.0));
    }
}
